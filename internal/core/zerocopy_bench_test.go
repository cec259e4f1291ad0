package alf

import (
	"testing"

	"repro/internal/buf"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/wire"
	"repro/internal/xcode"
)

// benchADUBytes is the steady-state ADU size: 8 fragments at the
// default 1024-byte fragment payload.
const benchADUBytes = 8 << 10

// BenchmarkSendSteadyState measures the full transport datapath: one
// ADU submitted at the source, fragmented, carried over a two-hop
// netsim route (source -> router -> destination), reassembled, and
// delivered. NoRetransmit keeps retention out of the picture; zero
// delay and zero loss keep every packet on the steady-state path.
func BenchmarkSendSteadyState(b *testing.B) {
	benchSteadyStateSuite(b, Config{})
}

// benchSteadyStateSuite is BenchmarkSendSteadyState with a configurable
// cipher suite: the full datapath (fragment, two-hop forward,
// reassemble, deliver) with the crypto plane on, so the suite overhead
// is measured in situ rather than in a kernel microbenchmark.
func benchSteadyStateSuite(b *testing.B, cfg Config) {
	cfg.Policy = NoRetransmit
	p := newRoutedPair(b, netsim.LinkConfig{}, cfg, 1)
	delivered := 0
	p.rcv.OnADU = func(adu ADU) { delivered++; adu.Release() }

	data := make([]byte, benchADUBytes)
	for i := range data {
		data[i] = byte(i)
	}
	b.SetBytes(benchADUBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.snd.Send(uint64(i), xcode.SyntaxRaw, data); err != nil {
			b.Fatal(err)
		}
		// Zero-delay topology: drain everything scheduled for "now"
		// without advancing the clock (periodic timers stay pending).
		_ = p.sched.RunUntil(p.sched.Now())
	}
	b.StopTimer()
	if delivered != b.N {
		b.Fatalf("delivered %d of %d", delivered, b.N)
	}
}

// BenchmarkReceivePath measures packetization plus reassembly with the
// network removed: the sender's emit path hands each wire fragment
// straight to the receiver.
func BenchmarkReceivePath(b *testing.B) {
	s := sim.NewScheduler()
	var rcv *Receiver
	snd, err := testSender(s, func(p []byte) error { return rcv.HandlePacket(p) },
		Config{Policy: NoRetransmit})
	if err != nil {
		b.Fatal(err)
	}
	rcv, err = NewReceiver(s, nil, Config{Policy: NoRetransmit})
	if err != nil {
		b.Fatal(err)
	}
	delivered := 0
	rcv.OnADU = func(adu ADU) { delivered++; adu.Release() }

	data := make([]byte, benchADUBytes)
	for i := range data {
		data[i] = byte(i)
	}
	b.SetBytes(benchADUBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := snd.Send(uint64(i), xcode.SyntaxRaw, data); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if delivered != b.N {
		b.Fatalf("delivered %d of %d", delivered, b.N)
	}
}

// BenchmarkFECSender measures the sender datapath with FEC parity
// accumulation enabled (one parity fragment per 4 data fragments).
func BenchmarkFECSender(b *testing.B) {
	s := sim.NewScheduler()
	snd, err := NewSender(s, func(p []byte) error { return nil },
		Config{Policy: NoRetransmit, FECGroup: 4})
	if err != nil {
		b.Fatal(err)
	}
	snd.SendRef = func(ref *buf.Ref) error { ref.Release(); return nil }
	data := make([]byte, benchADUBytes)
	for i := range data {
		data[i] = byte(i)
	}
	b.SetBytes(benchADUBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := snd.Send(uint64(i), xcode.SyntaxRaw, data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFECRepair measures receiver-side parity repair: each ADU
// arrives with one data fragment per FEC group missing, so every group
// is rebuilt from its parity.
func BenchmarkFECRepair(b *testing.B) {
	s := sim.NewScheduler()
	var pkts [][]byte
	snd, err := testSender(s, func(p []byte) error {
		pkts = append(pkts, append([]byte(nil), p...))
		return nil
	}, Config{Policy: NoRetransmit, FECGroup: 4})
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, benchADUBytes)
	for i := range data {
		data[i] = byte(i * 7)
	}
	if _, err := snd.Send(7, xcode.SyntaxRaw, data); err != nil {
		b.Fatal(err)
	}
	rcv, err := NewReceiver(s, nil, Config{Policy: NoRetransmit, FECGroup: 4})
	if err != nil {
		b.Fatal(err)
	}
	delivered := 0
	rcv.OnADU = func(adu ADU) { delivered++; adu.Release() }

	// Drop the first data fragment of each 4-fragment group; keep
	// parity fragments. The receiver must reconstruct 2 fragments of 8.
	feed := make([][]byte, 0, len(pkts))
	dataIdx := 0
	for _, p := range pkts {
		h, err := wire.ParseHeader(p)
		if err != nil {
			b.Fatal(err)
		}
		if h.Flags&wire.FlagParity == 0 {
			if dataIdx%4 == 0 {
				dataIdx++
				continue
			}
			dataIdx++
		}
		feed = append(feed, p)
	}
	b.SetBytes(benchADUBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Rewrite the name per iteration so each op reassembles a fresh ADU.
		for _, p := range feed {
			h, _ := wire.ParseHeader(p)
			h.Name = uint64(i)
			wire.PutHeader(p, &h)
			_ = rcv.HandlePacket(p)
		}
	}
	b.StopTimer()
	if delivered != b.N {
		b.Fatalf("delivered %d of %d", delivered, b.N)
	}
}
