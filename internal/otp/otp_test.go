package otp

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/buf"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/wire"
)

// testPair wires two connection endpoints across a duplex netsim link.
type testPair struct {
	sched    *sim.Scheduler
	net      *netsim.Network
	ab, ba   *netsim.Link
	sender   *Conn
	receiver *Conn
	got      *bytes.Buffer
}

func newPair(t *testing.T, linkCfg netsim.LinkConfig, connCfg Config, seed int64) *testPair {
	t.Helper()
	s := sim.NewScheduler()
	n := netsim.New(s, seed)
	a := n.NewNode("a")
	b := n.NewNode("b")
	ab, ba := n.NewDuplex(a, b, linkCfg)

	p := &testPair{sched: s, net: n, ab: ab, ba: ba, got: &bytes.Buffer{}}
	p.sender, p.receiver = Connect(s, a, b, ab, ba, connCfg, connCfg)
	p.receiver.OnData = func(d []byte) { p.got.Write(d) }
	return p
}

// inMemory returns a send function for a connection whose peer is in
// memory: out sees each segment for the length of the call, and the
// segment is released when out returns, so a peer that keeps one
// copies it.
func inMemory(out func([]byte) error) func(*buf.Ref) error {
	return func(ref *buf.Ref) error {
		err := out(ref.Bytes())
		ref.Release()
		return err
	}
}

// drop is the send function of a connection into a black hole.
func drop(ref *buf.Ref) error {
	ref.Release()
	return nil
}

func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*31 + i>>8)
	}
	return b
}

func TestInOrderTransfer(t *testing.T) {
	p := newPair(t, netsim.LinkConfig{RateBps: 1e7, Delay: time.Millisecond}, Config{}, 1)
	data := pattern(50_000)
	if err := p.sender.Send(data); err != nil {
		t.Fatal(err)
	}
	p.sched.Run()
	if !bytes.Equal(p.got.Bytes(), data) {
		t.Fatalf("received %d bytes, mismatch", p.got.Len())
	}
	if !p.sender.Idle() {
		t.Error("sender not idle after full ack")
	}
	if p.sender.Stats.Retransmits != 0 {
		t.Errorf("retransmits on a clean link: %d", p.sender.Stats.Retransmits)
	}
}

func TestMultipleWrites(t *testing.T) {
	p := newPair(t, netsim.LinkConfig{Delay: time.Millisecond}, Config{}, 1)
	var want []byte
	for i := 0; i < 20; i++ {
		chunk := pattern(777)
		want = append(want, chunk...)
		if err := p.sender.Send(chunk); err != nil {
			t.Fatal(err)
		}
	}
	p.sched.Run()
	if !bytes.Equal(p.got.Bytes(), want) {
		t.Fatal("mismatch across multiple writes")
	}
}

func TestSegmentationRespectsMSS(t *testing.T) {
	p := newPair(t, netsim.LinkConfig{MTU: 256 + wire.OTPHeaderSize, Delay: time.Millisecond},
		Config{MSS: 256}, 1)
	data := pattern(10_000)
	p.sender.Send(data)
	p.sched.Run()
	if !bytes.Equal(p.got.Bytes(), data) {
		t.Fatal("mismatch (likely MTU rejection => MSS not respected)")
	}
	if p.ab.Stats.Rejected != 0 {
		t.Errorf("oversize segments: %d", p.ab.Stats.Rejected)
	}
}

func TestLossRecoveryByTimeout(t *testing.T) {
	p := newPair(t, netsim.LinkConfig{Delay: time.Millisecond, LossProb: 0.05},
		Config{AckDelay: 0}, 3)
	data := pattern(100_000)
	p.sender.Send(data)
	p.sched.Run()
	if !bytes.Equal(p.got.Bytes(), data) {
		t.Fatalf("received %d of %d bytes", p.got.Len(), len(data))
	}
	if p.sender.Stats.Retransmits == 0 {
		t.Error("expected retransmissions on a lossy link")
	}
}

func TestLossRecoveryFastRetransmit(t *testing.T) {
	p := newPair(t, netsim.LinkConfig{Delay: time.Millisecond, LossProb: 0.03},
		Config{FastRetransmit: true}, 5)
	data := pattern(200_000)
	p.sender.Send(data)
	p.sched.Run()
	if !bytes.Equal(p.got.Bytes(), data) {
		t.Fatalf("received %d of %d bytes", p.got.Len(), len(data))
	}
	if p.sender.Stats.FastRetransmit == 0 {
		t.Error("fast retransmit never fired")
	}
}

func TestReorderingTolerated(t *testing.T) {
	p := newPair(t, netsim.LinkConfig{Delay: 2 * time.Millisecond,
		ReorderProb: 0.2, ReorderDelay: 5 * time.Millisecond}, Config{}, 7)
	data := pattern(100_000)
	p.sender.Send(data)
	p.sched.Run()
	if !bytes.Equal(p.got.Bytes(), data) {
		t.Fatal("reordered stream corrupted")
	}
	if p.receiver.Stats.OutOfOrder == 0 {
		t.Error("no out-of-order segments buffered despite link reordering")
	}
}

func TestDuplicationTolerated(t *testing.T) {
	p := newPair(t, netsim.LinkConfig{Delay: time.Millisecond, DupProb: 0.3}, Config{}, 9)
	data := pattern(50_000)
	p.sender.Send(data)
	p.sched.Run()
	if !bytes.Equal(p.got.Bytes(), data) {
		t.Fatal("duplicated stream corrupted")
	}
	if p.receiver.Stats.Duplicates == 0 {
		t.Error("no duplicates recorded despite link duplication")
	}
}

func TestCorruptionDetected(t *testing.T) {
	p := newPair(t, netsim.LinkConfig{Delay: time.Millisecond, BitErrorRate: 1e-6}, Config{}, 11)
	data := pattern(200_000)
	p.sender.Send(data)
	p.sched.Run()
	if !bytes.Equal(p.got.Bytes(), data) {
		t.Fatal("corruption reached the application through the checksum")
	}
	if p.receiver.Stats.ChecksumDrops == 0 {
		t.Error("no checksum drops despite bit errors")
	}
}

func TestEverythingAtOnce(t *testing.T) {
	p := newPair(t, netsim.LinkConfig{
		RateBps: 5e6, Delay: 3 * time.Millisecond, QueueLimit: 50,
		LossProb: 0.02, DupProb: 0.02, ReorderProb: 0.05,
		ReorderDelay: 4 * time.Millisecond, BitErrorRate: 1e-7,
	}, Config{FastRetransmit: true, AckDelay: time.Millisecond}, 13)
	data := pattern(300_000)
	p.sender.Send(data)
	p.sched.Run()
	if !bytes.Equal(p.got.Bytes(), data) {
		t.Fatalf("hostile link corrupted stream: got %d of %d bytes", p.got.Len(), len(data))
	}
}

func TestHeadOfLineBlocking(t *testing.T) {
	// The paper's stall: drop exactly one segment, the first; everything
	// behind it must wait for its retransmission, about an RTO, before
	// any delivery, and then the whole stream arrives in order.
	const rto = 100 * time.Millisecond
	p := newPair(t, netsim.LinkConfig{Delay: time.Millisecond},
		Config{MSS: 1000, InitialRTO: rto}, 1)
	s, sender, receiver := p.sched, p.sender, p.receiver

	dropped := 0
	p.ab.To().SetHandler(func(pk *netsim.Packet) {
		if pk.Payload[0]&wire.OTPData != 0 && dropped == 0 {
			dropped++
			return // swallow the first data segment
		}
		receiver.HandleSegment(pk.Payload)
	})

	var got []byte
	var first sim.Time
	receiver.OnData = func(d []byte) {
		if got == nil {
			first = s.Now()
		}
		got = append(got, d...)
	}

	data := pattern(5000) // segments 1..5
	sender.Send(data)
	s.Run()
	if dropped != 1 {
		t.Fatalf("dropped %d data segments, want 1", dropped)
	}
	if first < sim.Time(0).Add(rto) {
		t.Errorf("first delivery at %v, before the %v RTO the lost head segment needs", first, rto)
	}
	if !bytes.Equal(got, data) {
		t.Errorf("delivered %d bytes, want all %d in order", len(got), len(data))
	}
}

func TestHOLStallDuration(t *testing.T) {
	// Deterministic head-of-line blocking: the receiving node drops the
	// 3rd data segment's first arrival. The
	// receiver must get segments 1-2 promptly, then nothing until the
	// RTO retransmission, then 3-10 in a burst.
	p := newPair(t, netsim.LinkConfig{Delay: time.Millisecond},
		Config{MSS: 1000, InitialRTO: 100 * time.Millisecond, MinRTO: 100 * time.Millisecond}, 1)
	s, sender, receiver := p.sched, p.sender, p.receiver
	dataSegs := 0
	p.ab.To().SetHandler(func(pk *netsim.Packet) {
		if pk.Payload[0]&wire.OTPData != 0 {
			dataSegs++
			if dataSegs == 3 {
				return // lose segment 3 once
			}
		}
		receiver.HandleSegment(pk.Payload)
	})

	type delivery struct {
		at    sim.Time
		bytes int
	}
	var log []delivery
	receiver.OnData = func(d []byte) { log = append(log, delivery{s.Now(), len(d)}) }

	sender.Send(pattern(10_000))
	s.Run()

	total := 0
	for _, d := range log {
		total += d.bytes
	}
	if total != 10_000 {
		t.Fatalf("delivered %d bytes", total)
	}
	// Deliveries 1-2 arrive ~1ms; delivery of segment 3 must wait for
	// the retransmission at ~InitialRTO.
	if len(log) < 3 {
		t.Fatalf("log too short: %v", log)
	}
	if log[1].at > sim.Time(10*time.Millisecond) {
		t.Errorf("segment 2 late: %v", log[1].at)
	}
	stallEnd := log[2].at
	if stallEnd < sim.Time(90*time.Millisecond) {
		t.Errorf("segment 3 delivered at %v, expected >= ~RTO (head-of-line stall)", stallEnd)
	}
	// Everything behind the gap arrives in the same burst.
	last := log[len(log)-1].at
	if last.Sub(stallEnd) > 10*time.Millisecond {
		t.Errorf("post-gap burst spread %v, want tight", last.Sub(stallEnd))
	}
	if receiver.Stats.OutOfOrder == 0 {
		t.Error("segments 4-10 should have been buffered out of order")
	}
}

func TestFlowControlWindowLimitsInFlight(t *testing.T) {
	// A tiny receive window must throttle the sender: with a 4 KiB
	// window and 100 KiB to move over a 2ms-RTT link, the transfer takes
	// at least (100/4) RTTs.
	p := newPair(t, netsim.LinkConfig{Delay: time.Millisecond},
		Config{SendWindow: 1 << 20, RecvWindow: 4096, MSS: 1024}, 1)
	data := pattern(100 << 10)
	p.sender.Send(data)
	p.sched.Run()
	if !bytes.Equal(p.got.Bytes(), data) {
		t.Fatal("window-limited transfer corrupted")
	}
	elapsed := p.sched.Now()
	if elapsed < sim.Time(40*time.Millisecond) {
		t.Errorf("transfer finished in %v; window not limiting", elapsed)
	}
}

func TestSendBufferBound(t *testing.T) {
	p := newPair(t, netsim.LinkConfig{Delay: time.Millisecond},
		Config{SendBuffer: 10_000}, 1)
	if err := p.sender.Send(pattern(10_001)); err == nil {
		t.Error("oversized write accepted")
	}
	if err := p.sender.Send(pattern(10_000)); err != nil {
		t.Errorf("exact-fit write rejected: %v", err)
	}
}

func TestDelayedAcksReduceAckTraffic(t *testing.T) {
	run := func(delay sim.Duration) int64 {
		p := newPair(t, netsim.LinkConfig{RateBps: 1e7, Delay: time.Millisecond},
			Config{AckDelay: delay}, 1)
		p.sender.Send(pattern(100_000))
		p.sched.Run()
		if p.got.Len() != 100_000 {
			t.Fatalf("transfer failed with AckDelay=%v", delay)
		}
		return p.receiver.Stats.AcksSent
	}
	immediate := run(0)
	delayed := run(5 * time.Millisecond)
	if delayed >= immediate {
		t.Errorf("delayed acks (%d) not fewer than immediate (%d)", delayed, immediate)
	}
}

func TestConnIDDemux(t *testing.T) {
	// Two connections share the pair of nodes; segments must reach the
	// right one.
	s := sim.NewScheduler()
	n := netsim.New(s, 1)
	a := n.NewNode("a")
	b := n.NewNode("b")
	ab, ba := n.NewDuplex(a, b, netsim.LinkConfig{Delay: time.Millisecond})

	mkConns := func(id byte) (*Conn, *Conn, *bytes.Buffer) {
		cfg := Config{ConnID: id}
		snd, rcv := Connect(s, a, b, ab, ba, cfg, cfg)
		buf := &bytes.Buffer{}
		rcv.OnData = func(d []byte) { buf.Write(d) }
		return snd, rcv, buf
	}
	s1, r1, b1 := mkConns(1)
	s2, r2, b2 := mkConns(2)

	a.SetHandler(func(pk *netsim.Packet) {
		if s1.HandleSegment(pk.Payload) == ErrWrongConn {
			s2.HandleSegment(pk.Payload)
		}
	})
	b.SetHandler(func(pk *netsim.Packet) {
		if r1.HandleSegment(pk.Payload) == ErrWrongConn {
			r2.HandleSegment(pk.Payload)
		}
	})

	d1 := bytes.Repeat([]byte{1}, 30_000)
	d2 := bytes.Repeat([]byte{2}, 30_000)
	s1.Send(d1)
	s2.Send(d2)
	s.Run()
	if !bytes.Equal(b1.Bytes(), d1) || !bytes.Equal(b2.Bytes(), d2) {
		t.Error("connection demultiplexing mixed streams")
	}
}

func TestRTTEstimation(t *testing.T) {
	p := newPair(t, netsim.LinkConfig{Delay: 10 * time.Millisecond}, Config{}, 1)
	p.sender.Send(pattern(50_000))
	p.sched.Run()
	srtt := p.sender.rtt.SRTT
	if srtt < 15*time.Millisecond || srtt > 40*time.Millisecond {
		t.Errorf("SRTT = %v, want ~20ms", srtt)
	}
	if p.sender.rtt.RTO < p.sender.cfg.MinRTO {
		t.Errorf("RTO %v below MinRTO", p.sender.rtt.RTO)
	}
}

func TestRTOBacksOffUnderBlackout(t *testing.T) {
	// Destination drops everything: RTO must grow exponentially and
	// stop at MaxRTO.
	s := sim.NewScheduler()
	cfg := Config{InitialRTO: 10 * time.Millisecond, MaxRTO: 100 * time.Millisecond}
	c := New(s, drop, cfg) // black hole
	c.Send(pattern(100))
	s.RunUntil(sim.Time(2 * time.Second))
	if c.Stats.Timeouts < 5 {
		t.Errorf("timeouts = %d, want several", c.Stats.Timeouts)
	}
	if c.rtt.RTO != 100*time.Millisecond {
		t.Errorf("RTO = %v, want clamped at 100ms", c.rtt.RTO)
	}
	if c.Acked() != 0 {
		t.Error("black hole acked data?")
	}
	// Stop the scheduler cleanly: cancel by acking everything.
}

func TestOnAckedCallback(t *testing.T) {
	p := newPair(t, netsim.LinkConfig{Delay: time.Millisecond}, Config{}, 1)
	var acks []int64
	p.sender.OnAcked = func(total int64) { acks = append(acks, total) }
	p.sender.Send(pattern(10_000))
	p.sched.Run()
	if len(acks) == 0 || acks[len(acks)-1] != 10_000 {
		t.Errorf("acks = %v", acks)
	}
	for i := 1; i < len(acks); i++ {
		if acks[i] <= acks[i-1] {
			t.Error("OnAcked not monotone")
		}
	}
}

func TestShortSegmentRejected(t *testing.T) {
	s := sim.NewScheduler()
	c := New(s, drop, Config{})
	if err := c.HandleSegment(make([]byte, wire.OTPHeaderSize-1)); err == nil {
		t.Error("short segment accepted")
	}
}

func TestStatsAccounting(t *testing.T) {
	p := newPair(t, netsim.LinkConfig{Delay: time.Millisecond}, Config{}, 1)
	data := pattern(25_000)
	p.sender.Send(data)
	p.sched.Run()
	st := p.sender.Stats
	if st.BytesSent != 25_000 {
		t.Errorf("BytesSent = %d", st.BytesSent)
	}
	if p.receiver.Stats.BytesDelivered != 25_000 {
		t.Errorf("BytesDelivered = %d", p.receiver.Stats.BytesDelivered)
	}
	if p.receiver.Delivered() != 25_000 {
		t.Errorf("Delivered() = %d", p.receiver.Delivered())
	}
	if got := p.sender.Acked(); got != 25_000 {
		t.Errorf("Acked() = %d", got)
	}
}

func TestExtendSequence(t *testing.T) {
	cases := []struct {
		w    uint32
		near int64
		want int64
	}{
		{0, 0, 0},
		{100, 50, 100},
		{0xFFFFFFFF, 0xFFFFFF00, 0xFFFFFFFF},
		{5, 0xFFFFFFF0, 0x100000005},          // wrapped forward
		{0xFFFFFFF0, 0x100000005, 0xFFFFFFF0}, // just behind the wrap
	}
	for _, c := range cases {
		if got := extend(c.w, c.near); got != c.want {
			t.Errorf("extend(%#x, %#x) = %#x, want %#x", c.w, c.near, got, c.want)
		}
	}
}

func TestChunkedWritesEquivalentProperty(t *testing.T) {
	// Any split of the same byte stream into writes yields identical
	// delivery (with deterministic impairments fixed by the seed).
	f := func(splits []uint8) bool {
		data := pattern(20_000)
		p := newPair(t, netsim.LinkConfig{Delay: time.Millisecond, LossProb: 0.02}, Config{}, 99)
		off := 0
		for _, sp := range splits {
			n := int(sp) + 1
			if off+n > len(data) {
				break
			}
			if err := p.sender.Send(data[off : off+n]); err != nil {
				return false
			}
			off += n
		}
		if off < len(data) {
			if err := p.sender.Send(data[off:]); err != nil {
				return false
			}
		}
		p.sched.Run()
		return bytes.Equal(p.got.Bytes(), data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestHandleSegmentNeverPanics(t *testing.T) {
	s := sim.NewScheduler()
	c := New(s, drop, Config{})
	c.OnData = func([]byte) {}
	f := func(seg []byte) bool {
		c.HandleSegment(seg)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestMutatedSegmentsNeverCorruptStream(t *testing.T) {
	// Flip one bit anywhere in a valid segment: the receiver must either
	// drop it (checksum) or, if the flip misses the covered region
	// (impossible here: everything is covered), handle it cleanly. The
	// delivered stream must never contain wrong bytes.
	s := sim.NewScheduler()
	var segs [][]byte
	snd := New(s, inMemory(func(p []byte) error {
		segs = append(segs, append([]byte(nil), p...))
		return nil
	}), Config{MSS: 100})
	snd.Send(pattern(300))

	for _, seg := range segs {
		for bit := 0; bit < len(seg)*8; bit += 5 {
			rcv := New(s, drop, Config{MSS: 100})
			var got []byte
			rcv.OnData = func(d []byte) { got = append(got, d...) }
			mut := append([]byte(nil), seg...)
			mut[bit/8] ^= 1 << uint(bit%8)
			rcv.HandleSegment(mut)
			if len(got) > 0 && !bytes.Equal(got, pattern(300)[:len(got)]) {
				t.Fatalf("corrupted delivery after bit flip %d", bit)
			}
		}
	}
}

func TestBidirectionalSimultaneousTransfer(t *testing.T) {
	// Both directions carry data at once; piggybacked ACKs must not
	// confuse either direction.
	p := newPair(t, netsim.LinkConfig{RateBps: 2e7, Delay: 2 * time.Millisecond, LossProb: 0.02},
		Config{FastRetransmit: true}, 23)
	ca, cb, gotAtB := p.sender, p.receiver, p.got
	var gotAtA bytes.Buffer
	ca.OnData = func(d []byte) { gotAtA.Write(d) }

	d1 := pattern(150_000)
	d2 := make([]byte, 120_000)
	for i := range d2 {
		d2[i] = byte(i*7 + 3)
	}
	ca.Send(d1)
	cb.Send(d2)
	p.sched.Run()

	if !bytes.Equal(gotAtB.Bytes(), d1) {
		t.Errorf("a->b corrupted: %d of %d bytes", gotAtB.Len(), len(d1))
	}
	if !bytes.Equal(gotAtA.Bytes(), d2) {
		t.Errorf("b->a corrupted: %d of %d bytes", gotAtA.Len(), len(d2))
	}
}

func BenchmarkHandleSegmentDataPath(b *testing.B) {
	// CPU cost of receiving one in-order 1 KB data segment end to end
	// (checksum verify + demux + order check + delivery).
	s := sim.NewScheduler()
	var segs [][]byte
	const pool = 1024
	snd := New(s, inMemory(func(p []byte) error {
		segs = append(segs, append([]byte(nil), p...))
		return nil
	}), Config{MSS: 1024, SendWindow: pool * 1024, SendBuffer: pool * 1024, RecvWindow: 1 << 16})
	snd.peerWnd = pool * 1024 // skip the conservative-start ramp for generation
	if err := snd.Send(make([]byte, pool*1024)); err != nil {
		b.Fatal(err)
	}
	if len(segs) != pool {
		b.Fatalf("generated %d segments", len(segs))
	}
	sink := 0
	newRcv := func() *Conn {
		r := New(s, drop, Config{MSS: 1024, RecvWindow: 1 << 16})
		r.OnData = func(d []byte) { sink += len(d) }
		return r
	}
	rcv := newRcv()
	b.SetBytes(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%pool == 0 && i > 0 {
			// Fresh receiver per pool replay so every segment travels
			// the in-order delivery path (amortized over 1024 calls).
			b.StopTimer()
			rcv = newRcv()
			b.StartTimer()
		}
		rcv.HandleSegment(segs[i%pool])
	}
}

func BenchmarkHandleSegmentAckPath(b *testing.B) {
	// CPU cost of pure-ACK processing: the transfer-control path (F1).
	s := sim.NewScheduler()
	var ack []byte
	rcv := New(s, inMemory(func(p []byte) error {
		if p[0]&wire.OTPAck != 0 && p[0]&wire.OTPData == 0 && ack == nil {
			ack = append([]byte(nil), p...)
		}
		return nil
	}), Config{})
	// Provoke one ACK.
	snd := New(s, inMemory(rcv.HandleSegment), Config{})
	snd.Send(make([]byte, 100))
	if ack == nil {
		b.Fatal("no ack captured")
	}
	conn := New(s, drop, Config{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conn.HandleSegment(ack)
	}
}

func TestFailThresholdDeclaresDead(t *testing.T) {
	// Into a black hole, FailThreshold consecutive timeouts must kill
	// the connection explicitly: Dead(), OnDead, ErrConnDead on Send,
	// and no further retransmission attempts ever.
	s := sim.NewScheduler()
	cfg := Config{
		InitialRTO:    10 * time.Millisecond,
		MaxRTO:        50 * time.Millisecond,
		FailThreshold: 6,
	}
	c := New(s, drop, cfg)
	deadAt := sim.Time(-1)
	c.OnDead = func() { deadAt = s.Now() }
	c.Send(pattern(100))
	s.Run() // must terminate: a dead connection arms no timers
	if !c.Dead() {
		t.Fatal("connection not dead after sustained blackout")
	}
	if deadAt < 0 {
		t.Error("OnDead never fired")
	}
	if c.Stats.Timeouts != 6 || c.Stats.Died != 1 {
		t.Errorf("Timeouts = %d, Died = %d, want 6 and 1",
			c.Stats.Timeouts, c.Stats.Died)
	}
	// The dying timeout does not retransmit: 1 original + 5 retries.
	if c.Stats.SegmentsSent != 6 {
		t.Errorf("SegmentsSent = %d, want 6", c.Stats.SegmentsSent)
	}
	if err := c.Send(pattern(10)); err != ErrConnDead {
		t.Errorf("Send on dead conn = %v, want ErrConnDead", err)
	}
	// Dead is terminal: a late segment must not resurrect it. The peer
	// gets a FailThreshold too, or it would retry into the corpse
	// forever and Run() would never terminate.
	peer := New(s, inMemory(c.HandleSegment), Config{FailThreshold: 3})
	peer.Send(pattern(50))
	s.Run()
	if !c.Dead() || c.Delivered() != 0 {
		t.Error("dead connection processed a late segment")
	}
}

func TestFailThresholdStreakResetsOnProgress(t *testing.T) {
	// A lossy-but-alive path must never trip the threshold: every ACK
	// that advances sndUna resets the streak.
	p := newPair(t, netsim.LinkConfig{Delay: time.Millisecond, LossProb: 0.1},
		Config{FailThreshold: 3, InitialRTO: 20 * time.Millisecond,
			MinRTO: 20 * time.Millisecond}, 17)
	data := pattern(100_000)
	p.sender.Send(data)
	p.sched.Run()
	if p.sender.Dead() {
		t.Fatal("live lossy path declared dead")
	}
	if !bytes.Equal(p.got.Bytes(), data) {
		t.Fatalf("received %d of %d bytes", p.got.Len(), len(data))
	}
	if p.sender.Stats.Timeouts == 0 {
		t.Error("expected some timeouts on a 10% lossy path")
	}
}

func TestZeroFailThresholdNeverGivesUp(t *testing.T) {
	// Back-compat: the default keeps retrying at MaxRTO forever.
	s := sim.NewScheduler()
	c := New(s, drop,
		Config{InitialRTO: 10 * time.Millisecond, MaxRTO: 50 * time.Millisecond})
	c.Send(pattern(100))
	s.RunUntil(sim.Time(5 * time.Second))
	if c.Dead() {
		t.Error("FailThreshold=0 declared dead")
	}
	if c.Stats.Timeouts < 50 {
		t.Errorf("timeouts = %d, want steady retrying", c.Stats.Timeouts)
	}
}

func TestForgedAckIgnored(t *testing.T) {
	// An acknowledgement for data never sent must be dropped, not
	// crash or corrupt sender state.
	s := sim.NewScheduler()
	var ack []byte
	rcvSide := New(s, inMemory(func(p []byte) error {
		if p[0]&wire.OTPAck != 0 && p[0]&wire.OTPData == 0 && ack == nil {
			ack = append([]byte(nil), p...)
		}
		return nil
	}), Config{})
	sndSide := New(s, inMemory(rcvSide.HandleSegment), Config{})
	sndSide.Send(make([]byte, 100)) // provokes an ACK of 100 bytes
	if ack == nil {
		t.Fatal("no ack captured")
	}
	fresh := New(s, drop, Config{})
	if err := fresh.HandleSegment(ack); err != nil {
		t.Fatalf("forged ack returned error: %v", err)
	}
	if fresh.Stats.BadAcks != 1 {
		t.Errorf("BadAcks = %d, want 1", fresh.Stats.BadAcks)
	}
	if fresh.Acked() != 0 {
		t.Error("forged ack advanced sender state")
	}
}
