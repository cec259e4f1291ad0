package alf

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/sim"
	"repro/internal/wire"
	"repro/internal/xcode"
)

// TestHandlePacketNeverPanics throws random bytes at the receiver: a
// hostile or confused peer must never crash the process.
func TestHandlePacketNeverPanics(t *testing.T) {
	s := sim.NewScheduler()
	rcv, err := NewReceiver(s, func([]byte) error { return nil }, Config{FECGroup: 4})
	if err != nil {
		t.Fatal(err)
	}
	f := func(pkt []byte) bool {
		rcv.HandlePacket(pkt) // error returns are fine; panics are not
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

// TestHandlePacketMutatedHeaders flips bits in real packets: every
// mutation must be either dropped (checksum) or handled without
// corruption of delivered data.
func TestHandlePacketMutatedHeaders(t *testing.T) {
	s := sim.NewScheduler()
	var pkts [][]byte
	snd, _ := testSender(s, func(p []byte) error {
		pkts = append(pkts, append([]byte(nil), p...))
		return nil
	}, Config{MTU: 128 + HeaderSize, FECGroup: 2})
	snd.Send(7, xcode.SyntaxRaw, payload(500, 3))

	for _, pkt := range pkts {
		for bit := 0; bit < len(pkt)*8; bit += 7 {
			rcv, _ := NewReceiver(s, nil, Config{MTU: 128 + HeaderSize, FECGroup: 2})
			delivered := false
			rcv.OnADU = func(adu ADU) { delivered = true }
			mut := append([]byte(nil), pkt...)
			mut[bit/8] ^= 1 << uint(bit%8)
			rcv.HandlePacket(mut) // must not panic
			// A single mutated fragment can never complete a multi-
			// fragment ADU.
			if delivered {
				t.Fatalf("single mutated fragment delivered an ADU (bit %d)", bit)
			}
		}
	}
}

// TestHandleControlNeverPanics fuzzes the sender's control input.
func TestHandleControlNeverPanics(t *testing.T) {
	s := sim.NewScheduler()
	snd, err := testSender(s, func([]byte) error { return nil }, Config{})
	if err != nil {
		t.Fatal(err)
	}
	snd.Send(0, xcode.SyntaxRaw, payload(100, 1))
	f := func(pkt []byte) bool {
		snd.HandleControl(pkt)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

// TestForgedControlCannotInflateState: random valid-checksum control
// messages must not grow sender memory (NACKs for unknown names are
// counted, not serviced).
func TestForgedControlCannotInflateState(t *testing.T) {
	s := sim.NewScheduler()
	snd, _ := testSender(s, func([]byte) error { return nil }, Config{})
	snd.Send(0, xcode.SyntaxRaw, payload(100, 1))
	before := snd.BufferedBytes()
	// A forged NACK for a name far in the future.
	forged := wire.EncodeControl(nil, &wire.Control{Stream: 0, Cum: 0, Nacks: []uint64{999999}})
	if err := snd.HandleControl(forged); err != nil {
		t.Fatal(err)
	}
	if snd.Stats.UnfilledNacks != 1 {
		t.Errorf("unfilled nacks = %d", snd.Stats.UnfilledNacks)
	}
	if snd.BufferedBytes() != before {
		t.Error("forged control changed retention")
	}
	// A forged cum beyond every name sent is dropped; one at the next
	// name still releases the buffer — the control channel is trusted
	// up to the frontier the sender itself declared.
	snd.HandleControl(wire.EncodeControl(nil, &wire.Control{Stream: 0, Cum: 1 << 60}))
	if snd.BufferedBytes() != before || snd.Stats.CtrlDropped != 1 {
		t.Errorf("cum beyond the next name: %d bytes retained (want %d), %d dropped",
			snd.BufferedBytes(), before, snd.Stats.CtrlDropped)
	}
	snd.HandleControl(wire.EncodeControl(nil, &wire.Control{Stream: 0, Cum: snd.NextName()}))
	if snd.BufferedBytes() != 0 {
		t.Error("cum release failed")
	}
}

// TestFrontierBeyondNextNameDropped: a CTRL whose cumulative frontier
// passes every name the sender has spent — a corrupted header that
// survived the 16-bit checksum — is counted and dropped. Trusted, it
// would release every retained ADU and leave the heartbeat parked for
// good, so a later ADU's tail loss would never be detected.
func TestFrontierBeyondNextNameDropped(t *testing.T) {
	s := sim.NewScheduler()
	snd, _ := testSender(s, func([]byte) error { return nil }, Config{})
	for i := 0; i < 5; i++ {
		snd.Send(uint64(i), xcode.SyntaxRaw, payload(100, byte(i)))
	}
	err := snd.HandleControl(wire.EncodeControl(nil, &wire.Control{Stream: 0, Cum: 1 << 40}))
	if !errors.Is(err, ErrBadHeader) || snd.Stats.CtrlDropped != 1 || snd.Stats.CtrlReceived != 0 {
		t.Fatalf("err %v, %d dropped, %d received: want ErrBadHeader, 1, 0",
			err, snd.Stats.CtrlDropped, snd.Stats.CtrlReceived)
	}
	if got := snd.BufferedADUs(); got != 5 || snd.Stats.Released != 0 {
		t.Fatalf("%d ADUs retained, %d released after a frontier beyond the next name, want 5 and 0",
			got, snd.Stats.Released)
	}
	snd.Send(5, xcode.SyntaxRaw, payload(100, 5))
	hb := snd.Stats.Heartbeats
	s.RunFor(time.Second)
	if snd.Stats.Heartbeats == hb {
		t.Fatal("no heartbeat in the second after a Send: tail loss would go undetected")
	}
}

// TestReceiverMemoryBounded: a sender that claims huge ADUs must be
// refused before allocation.
func TestReceiverMemoryBounded(t *testing.T) {
	s := sim.NewScheduler()
	rcv, _ := NewReceiver(s, nil, Config{MaxADU: 1 << 16})
	h := wire.Header{
		Stream: 0, Name: 0, Tag: 0, Syntax: xcode.SyntaxRaw,
		TotalLen: 1 << 30, FragOff: 0, FragLen: 8,
	}
	pkt := make([]byte, HeaderSize+8)
	wire.PutHeader(pkt, &h)
	if err := rcv.HandlePacket(pkt); err == nil {
		t.Error("1 GiB ADU claim accepted against a 64 KiB limit")
	}
	if rcv.Stats.TooLarge != 1 {
		t.Errorf("TooLarge = %d", rcv.Stats.TooLarge)
	}
	if rcv.Pending() != 0 {
		t.Error("oversize claim allocated state")
	}
}

// TestInconsistentFragmentsRejected: fragments that disagree about the
// ADU's shape, or lie off the stream's grid of 1 024-byte fragments,
// must not corrupt reassembly.
func TestInconsistentFragmentsRejected(t *testing.T) {
	s := sim.NewScheduler()
	rcv, _ := NewReceiver(s, nil, Config{})
	mk := func(total, off, n int, tag uint64) []byte {
		h := wire.Header{Stream: 0, Name: 5, Tag: tag, Syntax: xcode.SyntaxRaw,
			TotalLen: total, FragOff: off, FragLen: n}
		pkt := make([]byte, HeaderSize+n)
		wire.PutHeader(pkt, &h)
		return pkt
	}
	if err := rcv.HandlePacket(mk(3000, 0, 1024, 1)); err != nil {
		t.Fatal(err)
	}
	if err := rcv.HandlePacket(mk(4000, 1024, 1024, 1)); err == nil {
		t.Error("total-length contradiction accepted")
	}
	if err := rcv.HandlePacket(mk(3000, 1024, 1024, 2)); err == nil {
		t.Error("tag contradiction accepted")
	}
	if err := rcv.HandlePacket(mk(3000, 104, 100, 1)); err == nil {
		t.Error("fragment off the grid accepted")
	}
	if rcv.Stats.Inconsistent != 3 || rcv.Stats.Fragments != 1 {
		t.Errorf("Inconsistent = %d, Fragments = %d", rcv.Stats.Inconsistent, rcv.Stats.Fragments)
	}
}

func TestNameWindowRejectsImplausibleNames(t *testing.T) {
	// A corrupted header that survives the 16-bit checksum (1 in ~65k)
	// could claim any name; the receiver must refuse names implausibly
	// far ahead rather than record a gigantic gap.
	s := sim.NewScheduler()
	rcv, _ := NewReceiver(s, nil, Config{})
	h := wire.Header{
		Stream: 0, Name: 1 << 42, Tag: 0, Syntax: xcode.SyntaxRaw,
		TotalLen: 8, FragOff: 0, FragLen: 8,
	}
	pkt := make([]byte, HeaderSize+8)
	wire.PutHeader(pkt, &h)
	if err := rcv.HandlePacket(pkt); err == nil {
		t.Fatal("implausible name accepted")
	}
	if rcv.Stats.HeaderDrops != 1 {
		t.Errorf("HeaderDrops = %d", rcv.Stats.HeaderDrops)
	}
	if rcv.Pending() != 0 {
		t.Error("state created for implausible name")
	}
	// Same for heartbeats.
	if err := rcv.HandlePacket(wire.EncodeHeartbeat(nil, 0, 1<<42)); err == nil {
		t.Fatal("implausible heartbeat extent accepted")
	}
}

// corpusCfg is the stream of corpusPackets and of FuzzHandlePacket's
// cleartext arm: 128-byte fragments in FEC groups of two.
func corpusCfg() Config { return Config{MTU: 128 + HeaderSize, FECGroup: 2, MaxADU: 1 << 16} }

// corpusPackets captures one real wire exchange as fuzz seeds: data
// fragments, a heartbeat, and a control message.
func corpusPackets() [][]byte {
	s := sim.NewScheduler()
	var pkts [][]byte
	snd, _ := testSender(s, func(p []byte) error {
		pkts = append(pkts, append([]byte(nil), p...))
		return nil
	}, corpusCfg())
	snd.Send(3, xcode.SyntaxRaw, payload(300, 9))
	pkts = append(pkts,
		wire.EncodeHeartbeat(nil, 0, 4),
		wire.EncodeControl(nil, &wire.Control{Stream: 0, Cum: 2, Nacks: []uint64{2, 3}}))
	return pkts
}

// aeadFuzzCfg is the AEAD arm's stream: the benchmark's 1 008-byte
// fragments, and no FEC. A parity fragment's group is whatever the
// header's TotalLen makes it, and the header is not authenticated: a
// genuine parity fragment under a forged TotalLen rebuilds a "missing"
// member that is the XOR of several, which nothing verifies. That hole
// is in the header's integrity, which no tag covers, and not in the tags
// this arm holds to account.
func aeadFuzzCfg() Config {
	cfg := aeadCfg()
	cfg.MaxADU = 1 << 16
	return cfg
}

// aeadFuzzADU is the AEAD arm's genuine traffic: ADU 0 of aeadFuzzCfg's
// stream, nine 1 008-byte fragments and a 200-byte tenth — two runs, the
// first starting mid-block from its second fragment on — as sealed.
func aeadFuzzADU() (data []byte, pkts [][]byte) {
	data = payload(9*1008+200, 0x6B)
	snd, _ := testSender(sim.NewScheduler(), func(p []byte) error {
		pkts = append(pkts, append([]byte(nil), p...))
		return nil
	}, aeadFuzzCfg())
	snd.Send(1, xcode.SyntaxRaw, data)
	return data, pkts
}

// FuzzHandlePacket is the native-fuzzer version of the quick checks
// above: arbitrary bytes into the receiver's data path must never
// panic, never allocate unbounded state, and never deliver an ADU the
// checksum did not vouch for. With aead the receiver is a SuiteAEAD one,
// the seeds are sealed 1 008-byte fragments, and the fuzzed packet is
// followed by every genuine fragment of the seeds' ADU, last first, so
// that what it left in the receiver — a partial, its run's lanes — is
// what they are opened against. Nothing the packet does may make the
// receiver deliver a byte the tags did not vouch for: any ADU delivered
// is the genuine one, or a prefix of it (a forged header may only
// shorten it, since the tags cover the payload and not the header).
func FuzzHandlePacket(f *testing.F) {
	for _, pkt := range corpusPackets() {
		f.Add(pkt, false)
	}
	f.Add([]byte{}, false)
	// Off corpusCfg's grid: a fragment at half a fragment's offset, and a
	// parity at a fragment that starts no FEC group.
	for _, h := range []wire.Header{
		{Name: 3, TotalLen: 300, FragOff: 64, FragLen: 128},
		{Name: 3, Flags: wire.FlagParity, TotalLen: 300, FragOff: 128, FragLen: 128},
	} {
		pkt := make([]byte, HeaderSize+h.FragLen)
		wire.PutHeader(pkt, &h)
		f.Add(pkt, false)
	}
	data, sealed := aeadFuzzADU()
	for _, pkt := range sealed {
		f.Add(pkt, true)
	}
	f.Add(sealed[1][:len(sealed[1])-1], true)
	// A sealed fragment of the same ADU from a sender of half the
	// fragment size: genuine, and off the grid.
	half := aeadFuzzCfg()
	half.MTU = HeaderSize + 504 + wire.TagSize
	var halves [][]byte
	hs, _ := testSender(sim.NewScheduler(), func(p []byte) error {
		halves = append(halves, append([]byte(nil), p...))
		return nil
	}, half)
	hs.Send(1, xcode.SyntaxRaw, data)
	f.Add(halves[1], true) // at offset 504
	f.Fuzz(func(t *testing.T, pkt []byte, aead bool) {
		s := sim.NewScheduler()
		cfg := corpusCfg()
		var genuine [][]byte // read only: a receiver never writes a packet
		if aead {
			cfg, genuine = aeadFuzzCfg(), sealed
		}
		rcv, err := NewReceiver(s, func([]byte) error { return nil }, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rcv.OnADU = func(adu ADU) {
			if len(adu.Data) > 1<<16 {
				t.Fatalf("delivered %d B past MaxADU", len(adu.Data))
			}
			if aead && (adu.Name != 0 || !bytes.Equal(adu.Data, data[:min(len(adu.Data), len(data))]) || len(adu.Data) > len(data)) {
				t.Fatalf("delivered ADU %d of %d bytes that the tags did not vouch for", adu.Name, len(adu.Data))
			}
			adu.Release()
		}
		rcv.HandlePacket(pkt) // errors fine, panics not
		rcv.HandlePacket(pkt) // duplicates must be harmless too
		if rcv.Pending() > 2 {
			t.Fatalf("one packet created %d pending ADUs", rcv.Pending())
		}
		for i := len(genuine) - 1; i >= 0; i-- {
			rcv.HandlePacket(genuine[i])
		}
	})
}

// FuzzHandleControl: arbitrary bytes into the sender's control path
// must never panic and never grow retention.
func FuzzHandleControl(f *testing.F) {
	for _, pkt := range corpusPackets() {
		f.Add(pkt)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, pkt []byte) {
		s := sim.NewScheduler()
		snd, err := testSender(s, func([]byte) error { return nil }, Config{})
		if err != nil {
			t.Fatal(err)
		}
		snd.Send(0, xcode.SyntaxRaw, payload(100, 1))
		before := snd.BufferedBytes()
		snd.HandleControl(pkt)
		if snd.BufferedBytes() > before {
			t.Fatalf("control input grew retention %d -> %d", before, snd.BufferedBytes())
		}
		if snd.lastCum > snd.NextName() {
			t.Fatalf("control input moved the frontier to %d, past the next name %d", snd.lastCum, snd.NextName())
		}
	})
}

// FuzzHandleCustody: arbitrary bytes into a custody-enabled sender
// must never panic, and custody acks can only shrink retention — a
// forged or corrupt frame must never grow state or resurrect a
// released ADU.
func FuzzHandleCustody(f *testing.F) {
	f.Add(wire.EncodeCustody(&wire.CustodyAck{Stream: 0, Cum: 1, Names: []uint64{1}}))
	f.Add(wire.EncodeCustody(&wire.CustodyAck{Stream: 0, Relay: 3, Cum: 0, Names: []uint64{0, 2, 1 << 40}}))
	f.Add(wire.EncodeCustody(&wire.CustodyAck{Stream: 9, Cum: 5}))
	f.Add([]byte{5})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, pkt []byte) {
		s := sim.NewScheduler()
		snd, err := testSender(s, func([]byte) error { return nil }, Config{Custody: true})
		if err != nil {
			t.Fatal(err)
		}
		snd.Send(0, xcode.SyntaxRaw, payload(100, 1))
		snd.Send(1, xcode.SyntaxRaw, payload(100, 2))
		before := snd.BufferedBytes()
		snd.HandleControl(pkt)
		after := snd.BufferedBytes()
		if after > before {
			t.Fatalf("custody input grew retention %d -> %d", before, after)
		}
		if released := snd.Stats.CustodyReleased; released > 0 && after == before {
			t.Fatalf("%d releases recorded but retention unchanged", released)
		}
		// Released custody stays released: replay must not panic or
		// double-release.
		snd.HandleControl(pkt)
		if snd.BufferedBytes() > after {
			t.Fatalf("replay grew retention %d -> %d", after, snd.BufferedBytes())
		}
	})
}
