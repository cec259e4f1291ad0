package alf

import (
	"testing"
	"time"

	"repro/internal/buf"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/wire"
	"repro/internal/xcode"
)

// TestSendSteadyStateZeroAlloc is the allocation-regression guard for
// the full datapath: Send -> packetize -> netsim (two hops, router
// forward) -> HandlePacket -> reassemble -> deliver -> Release. After
// warmup every buffer comes from the pool and every scheduler event
// from the freelist, so the steady state must not allocate at all.
func TestSendSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	if allocs := steadyStateAllocs(t, Config{}); allocs != 0 {
		t.Fatalf("steady-state send->forward->deliver allocates %v allocs/op, want 0", allocs)
	}
}

// TestPacedSendZeroAlloc: a paced stream holds each fragment until its
// time on a pooled event with a recycled record, so its steady state
// allocates no more than an unpaced one.
func TestPacedSendZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	p := newRoutedPair(t, netsim.LinkConfig{}, Config{Policy: NoRetransmit, RateBps: 1e9}, 1)
	delivered := 0
	p.rcv.OnADU = func(adu ADU) { delivered++; adu.Release() }
	data := payload(benchADUBytes, 3)
	send := func() {
		if _, err := p.snd.Send(0, xcode.SyntaxRaw, data); err != nil {
			t.Fatal(err)
		}
		if p.snd.Backlog() <= 0 {
			t.Fatal("the pacer holds nothing; the test measures no paced emission")
		}
		_ = p.sched.RunFor(time.Millisecond) // the pacer's hold is about 70 µs
	}
	for i := 0; i < 8; i++ {
		send()
	}
	if allocs := testing.AllocsPerRun(100, send); allocs != 0 {
		t.Fatalf("paced steady state allocates %v allocs/op, want 0", allocs)
	}
	if delivered != 8+101 {
		t.Fatalf("delivered %d of %d", delivered, 8+101)
	}
}

// steadyStateAllocs warms the two-hop rig of BenchmarkSendSteadyState
// under cfg (NoRetransmit) and returns the allocations of one more ADU
// sent, forwarded and delivered.
func steadyStateAllocs(t *testing.T, cfg Config) float64 {
	t.Helper()
	cfg.Policy = NoRetransmit
	p := newRoutedPair(t, netsim.LinkConfig{}, cfg, 1)
	delivered := 0
	p.rcv.OnADU = func(adu ADU) { delivered++; adu.Release() }

	data := make([]byte, benchADUBytes)
	for i := range data {
		data[i] = byte(i)
	}
	name := uint64(0)
	send := func() {
		if _, err := p.snd.Send(name, xcode.SyntaxRaw, data); err != nil {
			t.Fatal(err)
		}
		name++
		_ = p.sched.RunUntil(p.sched.Now())
	}
	// Warm the pools: first ADU provisions buffers, packets, events,
	// and the receiver's partial struct.
	for i := 0; i < 8; i++ {
		send()
	}
	allocs := testing.AllocsPerRun(100, send)
	if delivered != int(name) {
		t.Fatalf("delivered %d of %d", delivered, name)
	}
	return allocs
}

// TestReceivePathZeroAlloc guards the network-free loopback: the
// sender's emit path hands each wire fragment straight to the
// receiver, with FEC parity enabled so the parity accumulators and
// reconstruction path are covered too.
func TestReceivePathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	s := sim.NewScheduler()
	var rcv *Receiver
	snd, err := testSender(s, func(p []byte) error { return rcv.HandlePacket(p) },
		Config{Policy: NoRetransmit, FECGroup: 4})
	if err != nil {
		t.Fatal(err)
	}
	rcv, err = NewReceiver(s, nil, Config{Policy: NoRetransmit, FECGroup: 4})
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	rcv.OnADU = func(adu ADU) { delivered++; adu.Release() }

	data := make([]byte, benchADUBytes)
	for i := range data {
		data[i] = byte(i)
	}
	name := uint64(0)
	send := func() {
		if _, err := snd.Send(name, xcode.SyntaxRaw, data); err != nil {
			t.Fatal(err)
		}
		name++
	}
	for i := 0; i < 8; i++ {
		send()
	}
	if allocs := testing.AllocsPerRun(100, send); allocs != 0 {
		t.Fatalf("loopback send->deliver allocates %v allocs/op, want 0", allocs)
	}
	if delivered != int(name) {
		t.Fatalf("delivered %d of %d", delivered, name)
	}
}

// TestScanPassZeroAlloc extends the guard to the timer path: a gap
// scan over one outstanding partial (not yet due a NACK, frontier
// unchanged) walks the receiver's own table and sends nothing, so it
// must not allocate.
func TestScanPassZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	// Capture the first fragment of a two-fragment ADU from a sender on
	// a scheduler of its own, so none of its timers run under the
	// receiver's clock.
	var first []byte
	snd, err := testSender(sim.NewScheduler(), func(p []byte) error {
		if first == nil {
			first = append([]byte(nil), p...)
		}
		return nil
	}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snd.Send(0, xcode.SyntaxRaw, make([]byte, 2*snd.cfg.MTU)); err != nil {
		t.Fatal(err)
	}

	s := sim.NewScheduler()
	ctrl := 0
	rcv, err := NewReceiver(s, func([]byte) error { ctrl++; return nil },
		Config{NackInterval: time.Millisecond, NackDelay: time.Hour, HoldTime: 2 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if err := rcv.HandlePacket(first); err != nil {
		t.Fatal(err)
	}
	scan := func() {
		if err := s.RunFor(time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		scan()
	}
	fired := s.Fired()
	if allocs := testing.AllocsPerRun(100, scan); allocs != 0 {
		t.Fatalf("gap scan over one partial allocates %v allocs/op, want 0", allocs)
	}
	if s.Fired()-fired < 100 || rcv.Pending() != 1 || ctrl != 0 {
		t.Fatalf("rig broken: %d scans, %d partials, %d control messages", s.Fired()-fired, rcv.Pending(), ctrl)
	}
}

// TestControlFrameZeroAlloc guards the acknowledgement path: a receiver
// answers every heartbeat with a CTRL frame, and encodes each into the
// storage of the one before it, so acknowledging allocates nothing.
func TestControlFrameZeroAlloc(t *testing.T) {
	s := sim.NewScheduler()
	ctrl := 0
	rcv, err := NewReceiver(s, func([]byte) error { ctrl++; return nil }, Config{})
	if err != nil {
		t.Fatal(err)
	}
	hb := wire.EncodeHeartbeat(nil, 0, 0)
	beat := func() {
		if err := rcv.HandlePacket(hb); err != nil {
			t.Fatal(err)
		}
	}
	beat()
	if allocs := testing.AllocsPerRun(100, beat); allocs != 0 {
		t.Fatalf("answering a heartbeat allocates %v allocs/op, want 0", allocs)
	}
	if ctrl != 102 {
		t.Fatalf("rig broken: %d CTRL frames for 102 heartbeats", ctrl)
	}
}

// TestSenderBufferedRetentionZeroAlloc guards retention under
// SenderBuffered: with a few ADUs always outstanding, each submission
// retains its wire packets in the window slot the ring brings round
// and each cumulative acknowledgement frees the oldest, so the send ->
// release cycle must not allocate.
func TestSenderBufferedRetentionZeroAlloc(t *testing.T) {
	retentionZeroAlloc(t, 4, 8, 100)
}

// TestRetentionWindowZeroAlloc is the same guard at a window's worth of
// ADUs in flight and for long enough that the ring comes round many
// times: 64 outstanding, send one / release one for 1000 rounds.
func TestRetentionWindowZeroAlloc(t *testing.T) {
	retentionZeroAlloc(t, 64, 128, 1000)
}

func retentionZeroAlloc(t *testing.T, window, warmup, runs int) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	s := sim.NewScheduler()
	snd, err := NewSender(s, func([]byte) error { return nil }, Config{Policy: SenderBuffered})
	if err != nil {
		t.Fatal(err)
	}
	snd.SendRef = func(ref *buf.Ref) error { ref.Release(); return nil }

	cycles := warmup + 1 + runs // warm-up, then AllocsPerRun's own warm-up call and its runs
	acks := make([][]byte, cycles)
	for i := range acks {
		acks[i] = wire.EncodeControl(nil, &wire.Control{Stream: snd.cfg.StreamID, Cum: uint64(max(i+1-window, 0))})
	}
	data := make([]byte, benchADUBytes)
	name := uint64(0)
	cycle := func() {
		if _, err := snd.Send(name, xcode.SyntaxRaw, data); err != nil {
			t.Fatal(err)
		}
		if err := snd.HandleControl(acks[name]); err != nil {
			t.Fatal(err)
		}
		name++
	}
	for i := 0; i < warmup; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(runs, cycle); allocs != 0 {
		t.Fatalf("send -> retain -> cumulative release allocates %v allocs/op, want 0", allocs)
	}
	if snd.BufferedADUs() != window || snd.Stats.Released != int64(name)-int64(window) {
		t.Fatalf("rig broken: %d buffered, %d released after %d ADUs", snd.BufferedADUs(), snd.Stats.Released, name)
	}
}
