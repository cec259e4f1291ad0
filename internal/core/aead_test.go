package alf

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/buf"
	"repro/internal/cipher"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/wire"
	"repro/internal/xcode"
)

// aeadCfg is the baseline SuiteAEAD stream configuration for these
// tests: real ChaCha20-Poly1305 on the datapath, per-fragment tags.
func aeadCfg() Config {
	return Config{Suite: SuiteAEAD, Key: 0xFEEDFACE}
}

func TestAEADSingleADU(t *testing.T) {
	p := newPair(t, netsim.LinkConfig{Delay: time.Millisecond}, aeadCfg(), 1)
	data := payload(100, 1)
	if _, err := p.snd.Send(42, xcode.SyntaxRaw, data); err != nil {
		t.Fatal(err)
	}
	p.sched.Run()
	if len(p.adus) != 1 || !bytes.Equal(p.adus[0].Data, data) {
		t.Fatalf("AEAD ADU not delivered intact: %d ADUs", len(p.adus))
	}
	if p.rcv.Stats.AuthFails != 0 {
		t.Errorf("AuthFails = %d on a clean link", p.rcv.Stats.AuthFails)
	}
}

func TestAEADEmptyADU(t *testing.T) {
	p := newPair(t, netsim.LinkConfig{Delay: time.Millisecond}, aeadCfg(), 1)
	if _, err := p.snd.Send(7, xcode.SyntaxRaw, nil); err != nil {
		t.Fatal(err)
	}
	p.sched.Run()
	if len(p.adus) != 1 || len(p.adus[0].Data) != 0 {
		t.Fatalf("empty AEAD ADU not delivered: %+v", p.adus)
	}
}

func TestAEADMultiFragment(t *testing.T) {
	p := newPair(t, netsim.LinkConfig{Delay: time.Millisecond}, aeadCfg(), 1)
	data := payload(10_000, 3)
	p.snd.Send(0, xcode.SyntaxRaw, data)
	p.sched.Run()
	if len(p.adus) != 1 || !bytes.Equal(p.adus[0].Data, data) {
		t.Fatal("multi-fragment AEAD ADU corrupted")
	}
}

// TestAEADWireIsCiphertext checks the plaintext never appears on the
// wire: every data fragment's payload differs from the corresponding
// plaintext range.
func TestAEADWireIsCiphertext(t *testing.T) {
	s := sim.NewScheduler()
	data := payload(4096, 9)
	var sent [][]byte
	snd, err := testSender(s, func(p []byte) error {
		sent = append(sent, append([]byte(nil), p...))
		return nil
	}, aeadCfg())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snd.Send(0, xcode.SyntaxRaw, data); err != nil {
		t.Fatal(err)
	}
	for _, pkt := range sent {
		h, err := wire.ParseHeader(pkt)
		if err != nil {
			t.Fatal(err)
		}
		if h.Flags&wire.FlagAEAD == 0 {
			t.Fatal("fragment missing wire.FlagAEAD")
		}
		if h.ADUCheck != 0 {
			t.Errorf("ADUCheck = %#x, want 0 under AEAD", h.ADUCheck)
		}
		if h.Flags&wire.FlagParity != 0 || h.FragLen == 0 {
			continue
		}
		ct := pkt[HeaderSize : HeaderSize+h.FragLen]
		if bytes.Equal(ct, data[h.FragOff:h.FragOff+h.FragLen]) {
			t.Fatalf("fragment at %d is plaintext on the wire", h.FragOff)
		}
	}
}

// TestAEADCorruptionDroppedAndRecovered flips one ciphertext bit of one
// fragment in transit. The receiver must reject exactly that fragment
// (AuthFails), leave its range unaccounted, and recover it through the
// normal NACK path — end state: intact delivery.
func TestAEADCorruptionDroppedAndRecovered(t *testing.T) {
	cfg := aeadCfg()
	p := newPair(t, netsim.LinkConfig{Delay: time.Millisecond}, cfg, 1)
	data := payload(5000, 5)

	// Rewrap the receive handler to corrupt the second data fragment's
	// first transmission.
	corrupted := false
	inner := p.rcv
	seen := 0
	reinstallReceiver(p, func(pkt []byte) {
		if h, err := wire.ParseHeader(pkt); err == nil && h.Flags&wire.FlagParity == 0 && h.FragLen > 0 {
			if seen == 1 && !corrupted {
				pkt[HeaderSize+3] ^= 0x40
				corrupted = true
			}
			seen++
		}
		inner.HandlePacket(pkt)
	})

	if _, err := p.snd.Send(0, xcode.SyntaxRaw, data); err != nil {
		t.Fatal(err)
	}
	p.sched.Run()
	if !corrupted {
		t.Fatal("corruption hook never fired")
	}
	if p.rcv.Stats.AuthFails != 1 {
		t.Fatalf("AuthFails = %d, want 1", p.rcv.Stats.AuthFails)
	}
	if len(p.adus) != 1 || !bytes.Equal(p.adus[0].Data, data) {
		t.Fatal("ADU not recovered intact after corruption")
	}
	if p.snd.Stats.ResentADUs == 0 {
		t.Error("expected a NACK-driven resend")
	}
}

// TestAEADTamperedTagRejected flips a bit in the tag instead of the
// ciphertext; same rejection path.
func TestAEADTamperedTagRejected(t *testing.T) {
	p := newPair(t, netsim.LinkConfig{Delay: time.Millisecond}, aeadCfg(), 1)
	done := false
	inner := p.rcv
	reinstallReceiver(p, func(pkt []byte) {
		if h, err := wire.ParseHeader(pkt); err == nil && !done && h.FragLen > 0 {
			pkt[HeaderSize+h.FragLen] ^= 0x01 // first tag byte
			done = true
		}
		inner.HandlePacket(pkt)
	})
	data := payload(256, 2)
	p.snd.Send(0, xcode.SyntaxRaw, data)
	p.sched.Run()
	if p.rcv.Stats.AuthFails != 1 {
		t.Fatalf("AuthFails = %d, want 1", p.rcv.Stats.AuthFails)
	}
	if len(p.adus) != 1 || !bytes.Equal(p.adus[0].Data, data) {
		t.Fatal("ADU not recovered after tag tamper")
	}
}

// TestAEADFECReconstruct drops one data fragment per FEC group; the
// receiver must rebuild it from the parity blob without any recovery
// round trip, and the rebuilt plaintext must be correct (transitive
// authentication: parity tag + surviving tags).
func TestAEADFECReconstruct(t *testing.T) {
	cfg := aeadCfg()
	cfg.FECGroup = 4
	cfg.Policy = NoRetransmit
	p := newPair(t, netsim.LinkConfig{Delay: time.Millisecond}, cfg, 1)
	inner := p.rcv
	dataIdx := 0
	reinstallReceiver(p, func(pkt []byte) {
		if h, err := wire.ParseHeader(pkt); err == nil && h.Flags&wire.FlagParity == 0 && h.FragLen > 0 {
			if dataIdx%4 == 1 { // drop the second fragment of each group
				dataIdx++
				return
			}
			dataIdx++
		}
		inner.HandlePacket(pkt)
	})
	data := payload(8<<10, 11)
	p.snd.Send(0, xcode.SyntaxRaw, data)
	p.sched.Run()
	if len(p.adus) != 1 || !bytes.Equal(p.adus[0].Data, data) {
		t.Fatal("FEC-reconstructed AEAD ADU corrupted")
	}
	if p.rcv.Stats.FECRecovered == 0 {
		t.Error("no FEC reconstruction happened")
	}
	if p.rcv.Stats.AuthFails != 0 {
		t.Errorf("AuthFails = %d during FEC recovery", p.rcv.Stats.AuthFails)
	}
	if p.rcv.Stats.NacksSent != 0 {
		t.Errorf("NacksSent = %d; FEC should have avoided recovery", p.rcv.Stats.NacksSent)
	}
}

// TestAEADTamperedParityRejected corrupts a parity blob in transit: the
// parity must be rejected (never stored), and since no data fragment is
// lost the ADU still completes from data fragments alone.
func TestAEADTamperedParityRejected(t *testing.T) {
	cfg := aeadCfg()
	cfg.FECGroup = 4
	cfg.Policy = NoRetransmit
	p := newPair(t, netsim.LinkConfig{Delay: time.Millisecond}, cfg, 1)
	inner := p.rcv
	tampered := 0
	reinstallReceiver(p, func(pkt []byte) {
		if h, err := wire.ParseHeader(pkt); err == nil && h.Flags&wire.FlagParity != 0 {
			pkt[HeaderSize] ^= 0x80
			tampered++
		}
		inner.HandlePacket(pkt)
	})
	data := payload(8<<10, 4)
	p.snd.Send(0, xcode.SyntaxRaw, data)
	p.sched.Run()
	if tampered == 0 {
		t.Fatal("no parity fragment crossed the link")
	}
	// The final group's parity trails the last data fragment, so it
	// arrives after the ADU completed and is filtered as late before
	// the tag check; every parity that reached verification must fail.
	if p.rcv.Stats.AuthFails == 0 || int(p.rcv.Stats.AuthFails) > tampered {
		t.Fatalf("AuthFails = %d with %d tampered parities", p.rcv.Stats.AuthFails, tampered)
	}
	if p.rcv.Stats.ParityFrags != 0 {
		t.Errorf("a tampered parity was stored (ParityFrags = %d)", p.rcv.Stats.ParityFrags)
	}
	if len(p.adus) != 1 || !bytes.Equal(p.adus[0].Data, data) {
		t.Fatal("ADU lost despite intact data fragments")
	}
}

// TestAEADSuiteMismatch: a receiver opens payloads with its own
// configured suite and drops every fragment whose header names another,
// for all ordered pairs of distinct suites — cleartext aimed at an
// enciphered stream is unauthenticated input, and a fragment of another
// cipher cannot be opened at all. FEC is on so parity fragments cross
// too.
func TestAEADSuiteMismatch(t *testing.T) {
	cfgs := []Config{
		{Suite: SuiteNone},
		{Suite: SuiteScramble, Key: 5},
		{Suite: SuiteAEAD, Key: 5},
	}
	for _, from := range cfgs {
		for _, to := range cfgs {
			if from.Suite == to.Suite {
				continue
			}
			from.FECGroup, to.FECGroup = 2, 2
			s := sim.NewScheduler()
			var pkts [][]byte
			snd, err := testSender(s, func(p []byte) error {
				pkts = append(pkts, append([]byte(nil), p...))
				return nil
			}, from)
			if err != nil {
				t.Fatal(err)
			}
			snd.Send(0, xcode.SyntaxRaw, payload(3000, 1))

			rcv, err := NewReceiver(s, nil, to)
			if err != nil {
				t.Fatal(err)
			}
			rcv.OnADU = func(ADU) { t.Errorf("%v receiver delivered an ADU sent under %v", to.Suite, from.Suite) }
			for _, pkt := range pkts {
				if err := rcv.HandlePacket(pkt); !errors.Is(err, ErrBadHeader) {
					t.Fatalf("%v fragment on a %v stream: err = %v", from.Suite, to.Suite, err)
				}
			}
			st := rcv.Stats
			if st.HeaderDrops != int64(len(pkts)) || st.Fragments != 0 || st.ParityFrags != 0 || st.WireBytes != 0 {
				t.Errorf("%v -> %v: %d fragments sent, stats %+v", from.Suite, to.Suite, len(pkts), st)
			}
		}
	}
}

// TestAEADLossySoak runs a lossy, reordering link under SuiteAEAD and
// checks the exactly-once/intact-delivery invariants hold with the
// crypto plane on.
func TestAEADLossySoak(t *testing.T) {
	cfg := aeadCfg()
	p := newPair(t, netsim.LinkConfig{RateBps: 1e8, Delay: 2 * time.Millisecond, LossProb: 0.1}, cfg, 7)
	const n = 100
	var want [][]byte
	for i := 0; i < n; i++ {
		d := payload(500+i*13, byte(i))
		want = append(want, d)
		if _, err := p.snd.Send(uint64(i), xcode.SyntaxRaw, d); err != nil {
			t.Fatal(err)
		}
	}
	p.sched.Run()
	if len(p.adus) != n {
		t.Fatalf("delivered %d of %d", len(p.adus), n)
	}
	for _, a := range p.adus {
		if !bytes.Equal(a.Data, want[a.Name]) {
			t.Fatalf("ADU %d corrupted", a.Name)
		}
	}
	if p.rcv.Stats.AuthFails != 0 {
		t.Errorf("AuthFails = %d; loss is not corruption", p.rcv.Stats.AuthFails)
	}
}

// TestAEADConfigValidation covers the suite-specific Validate rules.
func TestAEADConfigValidation(t *testing.T) {
	s := sim.NewScheduler()
	if _, err := NewSender(s, nil, Config{Suite: SuiteAEAD}); !errors.Is(err, ErrConfig) {
		t.Errorf("SuiteAEAD without Key: err = %v", err)
	}
	if _, err := NewSender(s, nil, Config{Suite: SuiteScramble}); !errors.Is(err, ErrConfig) {
		t.Errorf("SuiteScramble without Key: err = %v", err)
	}
	if _, err := NewSender(s, nil, Config{Suite: 99}); !errors.Is(err, ErrConfig) {
		t.Errorf("unknown suite: err = %v", err)
	}
	// A variable, so that the conversion compiles where int has 32 bits
	// and no MaxADU is beyond the limit.
	if over := aeadMaxADU + 1; int64(int(over)) == over {
		if _, err := NewSender(s, nil, Config{Suite: SuiteAEAD, Key: 1, MaxADU: int(over)}); !errors.Is(err, ErrConfig) {
			t.Errorf("MaxADU beyond AEAD counter domain: err = %v", err)
		}
	}
	if _, err := NewSender(s, func([]byte) error { return nil }, Config{Suite: SuiteAEAD, Key: 1}); err != nil {
		t.Errorf("valid AEAD config rejected: %v", err)
	}
}

// TestSendSteadyStateAEADZeroAlloc is the allocation guard for the
// crypto-on datapath: Send -> AEAD packetize (keystream + tags) ->
// netsim forward -> HandlePacket -> verify + decrypt -> deliver ->
// Release must not allocate in steady state. The name matches the
// alloc-guard make target's -run pattern.
func TestSendSteadyStateAEADZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	if allocs := steadyStateAllocs(t, aeadCfg()); allocs != 0 {
		t.Fatalf("AEAD steady-state datapath allocates %v allocs/op, want 0", allocs)
	}
}

// TestReceiveAEADZeroAlloc is the receive-side twin: HandlePacket fed
// captured AEAD fragments — header check, tag-key derivation, fused
// verify + decrypt into the reassembly buffer, delivery, Release — with
// no sender, scheduler event or link in the measured call. A fragment
// is new to a receiver only once, so every run replays the next
// captured ADU.
func TestReceiveAEADZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	const warm, runs = 8, 100
	cfg := aeadCfg()
	cfg.Policy = NoRetransmit
	s := sim.NewScheduler()
	snd, err := NewSender(s, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var adus [][][]byte // adus[name] = that ADU's wire fragments, copied
	snd.SendRef = func(ref *buf.Ref) error {
		last := &adus[len(adus)-1]
		*last = append(*last, append([]byte(nil), ref.Bytes()...))
		ref.Release()
		return nil
	}
	data := make([]byte, benchADUBytes)
	for i := range data {
		data[i] = byte(i * 11)
	}
	for name := uint64(0); name < warm+runs+1; name++ {
		adus = append(adus, nil)
		if _, err := snd.Send(name, xcode.SyntaxRaw, data); err != nil {
			t.Fatal(err)
		}
	}

	rcv, err := NewReceiver(s, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	delivered, intact := 0, true
	rcv.OnADU = func(adu ADU) {
		delivered++
		intact = intact && bytes.Equal(adu.Data, data)
		adu.Release()
	}
	next := 0
	recv := func() {
		for _, p := range adus[next] {
			_ = rcv.HandlePacket(p)
		}
		next++
	}
	for i := 0; i < warm; i++ {
		recv()
	}
	if allocs := testing.AllocsPerRun(runs, recv); allocs != 0 {
		t.Fatalf("AEAD receive path allocates %v allocs/op, want 0", allocs)
	}
	if delivered != next || !intact {
		t.Fatalf("delivered %d of %d ADUs, intact=%v", delivered, next, intact)
	}
	if rcv.Stats.AuthFails != 0 {
		t.Fatalf("AuthFails = %d on captured fragments", rcv.Stats.AuthFails)
	}
}

// capturingSender is an AEAD sender whose wire packets are copied as
// they leave it, so that a test reads what was emitted and not what the
// buffer holds by the time it looks.
func capturingSender(t *testing.T, cfg Config, pkts *[][]byte) *Sender {
	t.Helper()
	snd, err := testSender(sim.NewScheduler(), func(p []byte) error {
		*pkts = append(*pkts, append([]byte(nil), p...))
		return nil
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return snd
}

// Every tag the sender emits is the one a fresh MAC gives — keyed by
// cipher.TagKey at the fragment's counter, Update over its ciphertext,
// Sum — whether its last chunk was folded by its own kernel calls,
// carried by the sender's chain into the next fragment's first call, or
// left to the flush after the last fragment, and whichever lane of its
// run's calls its tag key and head came from. Every data fragment's ciphertext is
// also the plaintext under the keystream cipher.XORKeyStream makes,
// which knows nothing of lanes or heads. ADU lengths run over every byte
// count from 0 to three fragments and 64 bytes, and then on past the
// first run boundary (eight fragments) to seventeen fragments, the
// lengths around every fragment boundary and one every 37 bytes, under
// FEC groups of 0, 2 and 4, and each packet is checked as it was
// emitted. Every ADU is then resent (SenderBuffered) after the next one
// was sealed through the same chain and lanes, and must still carry the
// tags it was sent with.
func TestSealChainTags(t *testing.T) {
	for _, fec := range []int{0, 2, 4} {
		cfg := aeadCfg()
		cfg.FECGroup = fec
		cfg.Policy = SenderBuffered
		var pkts [][]byte
		snd := capturingSender(t, cfg, &pkts)
		frag := snd.cfg.fragPayload()
		data := payload(17*frag, 0x3C)
		check := func(what string, name uint64) {
			t.Helper()
			if len(pkts) == 0 {
				t.Fatalf("fec=%d %s of ADU %d emitted nothing", fec, what, name)
			}
			nonce := aeadNonce(cfg.StreamID, name)
			for _, pkt := range pkts {
				h, err := wire.ParseHeader(pkt)
				if err != nil || h.Name != name {
					t.Fatalf("fec=%d %s of ADU %d: packet for ADU %d, err %v", fec, what, name, h.Name, err)
				}
				parity := h.Flags&wire.FlagParity != 0
				ctr := uint32(tagCtrData)
				if parity {
					ctr = tagCtrParity
				}
				ct := pkt[HeaderSize : HeaderSize+h.FragLen]
				var otk [32]byte
				cipher.TagKey(&snd.cfg.aeadKey, &nonce, ctr+uint32(h.FragOff/8), &otk)
				mac := cipher.NewMAC(&otk)
				mac.Update(ct)
				if !mac.Verify(pkt[HeaderSize+h.FragLen:]) {
					t.Fatalf("fec=%d %s of ADU %d (%d bytes): wrong tag on fragment off=%d len=%d parity=%v",
						fec, what, name, h.TotalLen, h.FragOff, h.FragLen, parity)
				}
				if parity {
					continue
				}
				pt := make([]byte, len(ct))
				cipher.XORKeyStream(&snd.cfg.aeadKey, &nonce, h.FragOff, pt, ct)
				if !bytes.Equal(pt, data[h.FragOff:h.FragOff+h.FragLen]) {
					t.Fatalf("fec=%d %s of ADU %d (%d bytes): fragment off=%d len=%d is not the plaintext under the payload keystream",
						fec, what, name, h.TotalLen, h.FragOff, h.FragLen)
				}
			}
			pkts = pkts[:0]
		}
		var lengths []int
		for n := 0; n <= 3*frag+64; n++ {
			lengths = append(lengths, n)
		}
		for n := 3*frag + 65; n <= len(data); n += 37 {
			lengths = append(lengths, n)
		}
		for k := 4; k <= 17; k++ {
			lengths = append(lengths, k*frag-8, k*frag, k*frag+8)
		}
		for i, n := range lengths {
			if n > len(data) {
				continue
			}
			name, err := snd.Send(uint64(i), xcode.SyntaxRaw, data[:n])
			if err != nil {
				t.Fatal(err)
			}
			check("send", name)
			if name > 0 {
				snd.resend(name - 1)
				check("resend", name-1)
				snd.unretain(snd.retained(name - 1))
			}
		}
	}
}

// A receiver opens fragments in whatever order they come, keeping the
// lanes of one run at a time: three ADUs of one, nine and seventeen
// fragments (runs of eight, and a run's first fragment arriving last)
// delivered interleaved fragment by fragment, the second in reverse,
// with duplicates and a whole resend mixed in; and then an
// ADU from a sender of the same stream whose fragments are half the
// receiver's, so that none of them lies on the receiver's grid: every
// other one starts at an offset that is no whole number of the
// receiver's fragments, and the rest are too short for theirs.
// The resend is of the second ADU, two thirds of the way into it, so it
// both completes that ADU and duplicates what came before. Every ADU of
// the receiver's grid arrives intact, every fragment of the other is
// refused as inconsistent, and no tag fails.
func TestReceiverLanesAnyOrder(t *testing.T) {
	cfg := aeadCfg()
	cfg.Policy = SenderBuffered
	var pkts [][]byte
	snd := capturingSender(t, cfg, &pkts)
	frag := snd.cfg.fragPayload()
	sizes := []int{frag - 8, 8*frag + 128, 17*frag - 40}
	var datas [][]byte
	var adus [][][]byte
	for i, n := range sizes {
		datas = append(datas, payload(n, byte(0x21*(i+1))))
		if _, err := snd.Send(uint64(i), xcode.SyntaxRaw, datas[i]); err != nil {
			t.Fatal(err)
		}
		adus, pkts = append(adus, pkts), nil
	}
	snd.resend(1)
	resent := pkts

	var order [][]byte
	rev := slices.Clone(adus[1])
	slices.Reverse(rev)
	for k := 0; k < len(adus[2]); k++ {
		for _, fs := range [][][]byte{adus[0], rev, adus[2]} {
			if k < len(fs) {
				order = append(order, fs[k])
			}
		}
		if k%3 == 1 {
			order = append(order, adus[2][k]) // a duplicate, at once
		}
		if k == 5 {
			order = append(order, resent...)
		}
	}
	order = append(order, adus[1][0], adus[2][len(adus[2])-1]) // late duplicates

	// The other sender makes names 0-2 too; its name 3 is what it sends,
	// twenty fragments, the last of them 96 bytes at an odd one's offset.
	half := cfg
	half.MTU = HeaderSize + frag/2 + wire.TagSize
	var other [][]byte
	osnd := capturingSender(t, half, &other)
	for name := 0; name < 4; name++ {
		other = other[:0]
		if _, err := osnd.Send(uint64(name), xcode.SyntaxRaw, payload(9*frag+600, 0x5A)); err != nil {
			t.Fatal(err)
		}
	}
	if osnd.cfg.fragPayload() != frag/2 || len(other) != 20 {
		t.Fatalf("the other sender's fragments are %d bytes, %d of them", osnd.cfg.fragPayload(), len(other))
	}

	rcv, err := NewReceiver(sim.NewScheduler(), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := map[uint64][]byte{}
	rcv.OnADU = func(a ADU) {
		got[a.Name] = append([]byte(nil), a.Data...)
		a.Release()
	}
	for i, p := range order {
		if err := rcv.HandlePacket(p); err != nil {
			t.Fatalf("packet %d of %d refused: %v", i, len(order), err)
		}
	}
	for i, p := range other {
		if err := rcv.HandlePacket(p); !errors.Is(err, ErrInconsistent) {
			t.Fatalf("the other sender's fragment %d: %v, want ErrInconsistent", i, err)
		}
	}
	if rcv.Stats.AuthFails != 0 || len(got) != len(datas) || rcv.Stats.Inconsistent != int64(len(other)) {
		t.Fatalf("%d ADUs delivered of %d, %d tags failed, %d fragments refused as inconsistent",
			len(got), len(datas), rcv.Stats.AuthFails, rcv.Stats.Inconsistent)
	}
	for name, want := range datas {
		if !bytes.Equal(got[uint64(name)], want) {
			t.Fatalf("ADU %d (%d bytes) is not delivered intact", name, len(want))
		}
	}
	if rcv.Stats.DupFragments+rcv.Stats.LateFragments == 0 {
		t.Fatal("no duplicate reached the receiver")
	}
}

// Negative vectors through the receiver at the benchmark's fragment
// size. The victim is the middle one of three 1 008-byte fragments: it
// starts mid-block (a Go head), then has chunks the kernel folds, and
// the sender's chain carried its last chunk into the next fragment's
// call. A bit flipped in each of its 16-byte blocks, a flipped tag bit,
// the fragment cut short (raw, and with a header that agrees), and the
// fragment presented at another offset — opened under another keystream
// and tag counter — must each be refused with nothing delivered and its
// range left unaccounted, which the genuine fragment then proves by
// completing the ADU intact. `make portable` runs this on the pure-Go
// path as well.
func TestAEADNegativeVectors(t *testing.T) {
	cfg := aeadCfg()
	cfg.Policy = NoRetransmit
	var pkts [][]byte
	snd := capturingSender(t, cfg, &pkts)
	frag := snd.cfg.fragPayload()
	data := payload(3*frag, 0x77)
	if _, err := snd.Send(0, xcode.SyntaxRaw, data); err != nil {
		t.Fatal(err)
	}
	if len(pkts) != 3 {
		t.Fatalf("%d packets for three fragments", len(pkts))
	}
	victim := pkts[1]
	h, err := wire.ParseHeader(victim)
	if err != nil || h.FragOff != frag || h.FragLen != frag {
		t.Fatalf("fragment 1 is off=%d len=%d (err %v), want %d, %d", h.FragOff, h.FragLen, err, frag, frag)
	}
	type vector struct {
		name string
		pkt  []byte
	}
	var vecs []vector
	forged := func(name string, edit func(p []byte) []byte) {
		vecs = append(vecs, vector{name, edit(append([]byte(nil), victim...))})
	}
	for blk := 0; blk < h.FragLen/16; blk++ {
		forged(fmt.Sprintf("bit flipped in block %d", blk), func(p []byte) []byte {
			p[HeaderSize+16*blk+blk%16] ^= 1 << (blk % 8)
			return p
		})
	}
	forged("tag bit flipped", func(p []byte) []byte { p[len(p)-5] ^= 0x10; return p })
	forged("cut by a byte", func(p []byte) []byte { return p[:len(p)-1] })
	forged("cut by 16 bytes, header agreeing", func(p []byte) []byte {
		g := h
		g.FragLen -= 16
		wire.PutHeader(p, &g)
		return p[:len(p)-16]
	})
	forged("at another offset", func(p []byte) []byte {
		g := h
		g.FragOff = 2 * frag
		wire.PutHeader(p, &g)
		return p
	})

	for _, v := range vecs {
		rcv, err := NewReceiver(sim.NewScheduler(), nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var got [][]byte
		rcv.OnADU = func(a ADU) {
			got = append(got, append([]byte(nil), a.Data...))
			a.Release()
		}
		if err := rcv.HandlePacket(v.pkt); err == nil {
			t.Fatalf("%s: accepted", v.name)
		}
		for _, p := range [][]byte{pkts[0], pkts[2]} {
			if err := rcv.HandlePacket(p); err != nil {
				t.Fatalf("%s: genuine fragment refused after it: %v", v.name, err)
			}
		}
		if len(got) != 0 || rcv.Stats.Fragments != 2 {
			t.Fatalf("%s: the forged range was accounted (%d delivered, %d fragments)", v.name, len(got), rcv.Stats.Fragments)
		}
		if err := rcv.HandlePacket(victim); err != nil {
			t.Fatalf("%s: the genuine fragment refused: %v", v.name, err)
		}
		if len(got) != 1 || !bytes.Equal(got[0], data) {
			t.Fatalf("%s: %d ADUs delivered after the genuine fragment, intact=%v", v.name, len(got), len(got) == 1 && bytes.Equal(got[0], data))
		}
	}
}
