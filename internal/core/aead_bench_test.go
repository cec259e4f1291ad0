package alf

import (
	"testing"

	"repro/internal/cipher"
)

// BenchmarkSendSteadyStateAEAD: ChaCha20-Poly1305 on, fused kernels,
// per-fragment tags end to end.
func BenchmarkSendSteadyStateAEAD(b *testing.B) {
	benchSteadyStateSuite(b, Config{Suite: SuiteAEAD, Key: 0xFEEDFACE})
}

// sealedADU is one 8 KiB ADU at the default fragment size (1 008
// bytes: eight fragments and a 128-byte ninth), sealed by the AEAD
// suite into one buffer per fragment, payload and tag, through st's
// chain and lanes.
func sealedADU(cfg *Config, st *sealState, name uint64, data []byte, frags [][]byte) {
	frag := cfg.fragPayload()
	for k, off := 0, 0; off < len(data); k, off = k+1, off+frag {
		n := min(frag, len(data)-off)
		cfg.suite.seal(cfg, st, name, off, len(data), frags[k][:n+cipher.TagSize], data[off:off+n])
	}
	st.flush()
}

// aeadADU is the suite, the payload and the fragment buffers the two
// benchmarks below share.
func aeadADU() (*Config, []byte, [][]byte) {
	cfg := &Config{Suite: SuiteAEAD, Key: 0xFEEDFACE}
	if err := cfg.prepare(); err != nil {
		panic(err)
	}
	data := make([]byte, benchADUBytes)
	for i := range data {
		data[i] = byte(i)
	}
	frag := cfg.fragPayload()
	var frags [][]byte
	for off := 0; off < len(data); off += frag {
		frags = append(frags, make([]byte, frag+cipher.TagSize))
	}
	return cfg, data, frags
}

// BenchmarkSealADU and BenchmarkOpenADU are the crypto of one ADU of
// BenchmarkSendSteadyStateAEAD, timed apart from the protocol around
// it: every fragment's seal through the sender's chain and lanes, and
// its flush; every fragment's open into its place, tag verified. Each
// ADU is a new name, so each takes its lanes anew, as in a stream.
func BenchmarkSealADU(b *testing.B) {
	cfg, data, frags := aeadADU()
	st := new(sealState)
	b.SetBytes(benchADUBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sealedADU(cfg, st, uint64(i), data, frags)
	}
}

func BenchmarkOpenADU(b *testing.B) {
	cfg, data, frags := aeadADU()
	sealedADU(cfg, new(sealState), 1, data, frags)
	out := make([]byte, len(data))
	frag := cfg.fragPayload()
	b.SetBytes(benchADUBytes)
	b.ReportAllocs()
	st := new(openState)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.lanes.n = 0 // a new ADU's lanes each time, not the last one's
		for k, off := 0, 0; off < len(data); k, off = k+1, off+frag {
			n := min(frag, len(data)-off)
			if _, ok := cfg.suite.open(cfg, st, 1, off, len(data), out[off:off+n], frags[k][:n], frags[k][n:n+cipher.TagSize]); !ok {
				b.Fatalf("fragment %d does not verify", k)
			}
		}
	}
}

// BenchmarkSendSteadyStateScramble: the legacy scramble keystream
// (splitmix64 in counter mode) with the Internet checksum, for contrast
// with the AEAD suite above and the cleartext BenchmarkSendSteadyState.
func BenchmarkSendSteadyStateScramble(b *testing.B) {
	benchSteadyStateSuite(b, Config{Suite: SuiteScramble, Key: 0xFEEDFACE})
}
