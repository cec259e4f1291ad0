package netsim

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/buf"
	"repro/internal/sim"
	"repro/internal/tracing"
)

func pair(t *testing.T, cfg LinkConfig, seed int64) (*sim.Scheduler, *Network, *Node, *Node, *Link) {
	t.Helper()
	s := sim.NewScheduler()
	n := New(s, seed)
	a := n.NewNode("a")
	b := n.NewNode("b")
	return s, n, a, b, n.NewLink(a, b, cfg)
}

func TestBasicDelivery(t *testing.T) {
	s, _, _, b, l := pair(t, LinkConfig{Delay: 5 * time.Millisecond}, 1)
	var got []byte
	var at sim.Time
	b.SetHandler(func(p *Packet) { got = append([]byte(nil), p.Payload...); at = s.Now() })
	if err := l.Send([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if !bytes.Equal(got, []byte("hello")) {
		t.Fatalf("got %q", got)
	}
	if at != sim.Time(5*time.Millisecond) {
		t.Errorf("arrival at %v, want 5ms", at)
	}
	if l.Stats.Sent != 1 || l.Stats.Delivered != 1 {
		t.Errorf("stats = %+v", l.Stats)
	}
}

func TestSenderBufferReusable(t *testing.T) {
	s, _, _, b, l := pair(t, LinkConfig{}, 1)
	var got []byte
	b.SetHandler(func(p *Packet) { got = p.Payload })
	buf := []byte("aaaa")
	l.Send(buf)
	copy(buf, "bbbb") // mutate after send: receiver must still see "aaaa"
	s.Run()
	if string(got) != "aaaa" {
		t.Errorf("got %q, payload aliased sender buffer", got)
	}
}

func TestSerializationDelay(t *testing.T) {
	// 8000 bits at 1 Mbps = 8 ms serialization + 1 ms propagation.
	s, _, _, b, l := pair(t, LinkConfig{RateBps: 1e6, Delay: time.Millisecond}, 1)
	var at sim.Time
	b.SetHandler(func(p *Packet) { at = s.Now() })
	l.Send(make([]byte, 1000))
	s.Run()
	if want := sim.Time(9 * time.Millisecond); at != want {
		t.Errorf("arrival at %v, want %v", at, want)
	}
}

func TestBackToBackPacketsQueue(t *testing.T) {
	// Two 1000-byte packets sent together on a 1 Mbps link: second
	// finishes serializing at 16 ms.
	s, _, _, b, l := pair(t, LinkConfig{RateBps: 1e6}, 1)
	var arrivals []sim.Time
	b.SetHandler(func(p *Packet) { arrivals = append(arrivals, s.Now()) })
	l.Send(make([]byte, 1000))
	l.Send(make([]byte, 1000))
	s.Run()
	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %v", arrivals)
	}
	if arrivals[0] != sim.Time(8*time.Millisecond) || arrivals[1] != sim.Time(16*time.Millisecond) {
		t.Errorf("arrivals = %v, want [8ms 16ms]", arrivals)
	}
}

func TestQueueLimitDropTail(t *testing.T) {
	s, _, _, b, l := pair(t, LinkConfig{RateBps: 1e6, QueueLimit: 2}, 1)
	delivered := 0
	b.SetHandler(func(p *Packet) { delivered++ })
	for i := 0; i < 5; i++ {
		l.Send(make([]byte, 100))
	}
	s.Run()
	if delivered != 2 {
		t.Errorf("delivered = %d, want 2", delivered)
	}
	if l.Stats.QueueDrops != 3 {
		t.Errorf("queue drops = %d, want 3", l.Stats.QueueDrops)
	}
}

func TestQueueDrainsOverTime(t *testing.T) {
	// With sends spaced beyond the serialization time, the queue never
	// fills.
	s, _, _, b, l := pair(t, LinkConfig{RateBps: 1e6, QueueLimit: 1}, 1)
	delivered := 0
	b.SetHandler(func(p *Packet) { delivered++ })
	for i := 0; i < 5; i++ {
		i := i
		s.At(sim.Time(i)*sim.Time(10*time.Millisecond), func() { l.Send(make([]byte, 100)) })
	}
	s.Run()
	if delivered != 5 {
		t.Errorf("delivered = %d, want 5 (drops: %d)", delivered, l.Stats.QueueDrops)
	}
}

func TestMTU(t *testing.T) {
	_, _, _, _, l := pair(t, LinkConfig{MTU: 100}, 1)
	if err := l.Send(make([]byte, 101)); !errors.Is(err, ErrTooBig) {
		t.Errorf("err = %v, want ErrTooBig", err)
	}
	if err := l.Send(make([]byte, 100)); err != nil {
		t.Errorf("100-byte send on MTU-100 link failed: %v", err)
	}
	if l.Stats.Rejected != 1 {
		t.Errorf("rejected = %d", l.Stats.Rejected)
	}
}

func TestRandomLossRate(t *testing.T) {
	s, _, _, b, l := pair(t, LinkConfig{LossProb: 0.25}, 7)
	delivered := 0
	b.SetHandler(func(p *Packet) { delivered++ })
	const n = 10000
	for i := 0; i < n; i++ {
		l.Send([]byte{1})
	}
	s.Run()
	rate := 1 - float64(delivered)/n
	if rate < 0.22 || rate > 0.28 {
		t.Errorf("loss rate = %v, want ~0.25", rate)
	}
	if l.Stats.LineLosses != int64(n-delivered) {
		t.Errorf("LineLosses = %d, want %d", l.Stats.LineLosses, n-delivered)
	}
}

func TestBurstLossIsBursty(t *testing.T) {
	// Gilbert–Elliott with sticky states must produce longer loss runs
	// than independent loss at the same average rate.
	runLens := func(cfg LinkConfig, seed int64) (avgRun float64, lossRate float64) {
		s, _, _, b, l := pair(t, cfg, seed)
		const n = 20000
		received := make([]bool, n)
		next := 0
		b.SetHandler(func(p *Packet) { received[int(p.Payload[0])<<8|int(p.Payload[1])] = true })
		for i := 0; i < n; i++ {
			l.Send([]byte{byte(i >> 8), byte(i)})
		}
		s.Run()
		_ = next
		runs, losses, run := 0, 0, 0
		for _, ok := range received {
			if !ok {
				losses++
				run++
			} else if run > 0 {
				runs++
				run = 0
			}
		}
		if run > 0 {
			runs++
		}
		if runs == 0 {
			return 0, 0
		}
		return float64(losses) / float64(runs), float64(losses) / n
	}
	burstAvg, burstRate := runLens(LinkConfig{Burst: &Gilbert{
		PGoodToBad: 0.005, PBadToGood: 0.2, LossGood: 0, LossBad: 0.9,
	}}, 11)
	// Independent loss at roughly the same rate.
	indepAvg, _ := runLens(LinkConfig{LossProb: burstRate}, 13)
	if burstAvg <= indepAvg {
		t.Errorf("burst avg run %v <= independent %v (burst rate %v)", burstAvg, indepAvg, burstRate)
	}
}

func TestDuplication(t *testing.T) {
	s, _, _, b, l := pair(t, LinkConfig{DupProb: 0.5}, 3)
	delivered := 0
	b.SetHandler(func(p *Packet) { delivered++ })
	const n = 2000
	for i := 0; i < n; i++ {
		l.Send([]byte{1})
	}
	s.Run()
	extra := delivered - n
	if extra < n*4/10 || extra > n*6/10 {
		t.Errorf("duplicates = %d, want ~%d", extra, n/2)
	}
	if l.Stats.Dups != int64(extra) {
		t.Errorf("Stats.Dups = %d, want %d", l.Stats.Dups, extra)
	}
}

func TestReordering(t *testing.T) {
	s, _, _, b, l := pair(t, LinkConfig{
		RateBps: 1e8, Delay: time.Millisecond,
		ReorderProb: 0.3, ReorderDelay: 10 * time.Millisecond,
	}, 5)
	var order []int
	b.SetHandler(func(p *Packet) { order = append(order, int(p.Payload[0])<<8|int(p.Payload[1])) })
	const n = 1000
	for i := 0; i < n; i++ {
		l.Send([]byte{byte(i >> 8), byte(i)})
	}
	s.Run()
	if len(order) != n {
		t.Fatalf("delivered %d, want %d", len(order), n)
	}
	inversions := 0
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			inversions++
		}
	}
	if inversions == 0 {
		t.Error("no reordering observed")
	}
	if l.Stats.Reordered == 0 {
		t.Error("Stats.Reordered = 0")
	}
}

func TestNoImpairmentsPreservesOrder(t *testing.T) {
	s, _, _, b, l := pair(t, LinkConfig{RateBps: 1e6, Delay: time.Millisecond}, 5)
	var order []int
	b.SetHandler(func(p *Packet) { order = append(order, int(p.Payload[0])) })
	for i := 0; i < 100; i++ {
		l.Send([]byte{byte(i)})
	}
	s.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("order violated at %d: %v", i, order[:i+1])
		}
	}
}

func TestBitErrors(t *testing.T) {
	s, _, _, b, l := pair(t, LinkConfig{BitErrorRate: 1e-4}, 9)
	corrupted, clean := 0, 0
	payload := bytes.Repeat([]byte{0x55}, 1000) // 8000 bits; P(corrupt) ~ 0.55
	b.SetHandler(func(p *Packet) {
		if p.Corrupted {
			corrupted++
			if bytes.Equal(p.Payload, payload) {
				t.Error("packet marked corrupted but unchanged")
			}
		} else {
			clean++
			if !bytes.Equal(p.Payload, payload) {
				t.Error("packet changed but not marked corrupted")
			}
		}
	})
	const n = 2000
	for i := 0; i < n; i++ {
		l.Send(payload)
	}
	s.Run()
	frac := float64(corrupted) / n
	if frac < 0.45 || frac > 0.65 {
		t.Errorf("corruption rate = %v, want ~0.55", frac)
	}
}

func TestUndeliveredCounted(t *testing.T) {
	s, _, _, b, l := pair(t, LinkConfig{}, 1)
	l.Send([]byte{1})
	s.Run()
	if b.Stats.Undelivered != 1 {
		t.Errorf("Undelivered = %d, want 1", b.Stats.Undelivered)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []int64 {
		s, _, _, b, l := pair(t, LinkConfig{LossProb: 0.1, DupProb: 0.1,
			ReorderProb: 0.1, ReorderDelay: time.Millisecond, BitErrorRate: 1e-5}, 42)
		delivered := int64(0)
		b.SetHandler(func(p *Packet) { delivered++ })
		for i := 0; i < 1000; i++ {
			l.Send(make([]byte, 100))
		}
		s.Run()
		return []int64{delivered, l.Stats.LineLosses, l.Stats.Dups, l.Stats.Reordered, l.Stats.Corrupted}
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged: %v vs %v", a, b)
		}
	}
}

func TestRouterForwarding(t *testing.T) {
	s := sim.NewScheduler()
	n := New(s, 1)
	src := n.NewNode("src")
	dst := n.NewNode("dst")
	r := n.NewRouter("r")
	up := n.NewLink(src, r.Node, LinkConfig{Delay: time.Millisecond})
	down := n.NewLink(r.Node, dst, LinkConfig{Delay: time.Millisecond})
	r.AddRoute(dst, down)

	var got []byte
	dst.SetHandler(func(p *Packet) { got = p.Payload })
	if err := SendVia(up, dst, []byte("routed")); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if string(got) != "routed" {
		t.Fatalf("got %q", got)
	}
}

func TestRouterMultiHop(t *testing.T) {
	s := sim.NewScheduler()
	n := New(s, 1)
	src := n.NewNode("src")
	dst := n.NewNode("dst")
	r1 := n.NewRouter("r1")
	r2 := n.NewRouter("r2")
	up := n.NewLink(src, r1.Node, LinkConfig{})
	mid := n.NewLink(r1.Node, r2.Node, LinkConfig{})
	down := n.NewLink(r2.Node, dst, LinkConfig{})
	r1.AddRoute(dst, mid)
	r2.AddRoute(dst, down)

	got := false
	dst.SetHandler(func(p *Packet) { got = true })
	SendVia(up, dst, []byte("x"))
	s.Run()
	if !got {
		t.Error("packet did not traverse two routers")
	}
}

// The router hands the delivered packet itself on to the next hop: the
// far node's handler sees the *Packet the first hop carried, with the
// same unshared buffer, and with Corrupted reset, since damage is the
// first hop's. The path ends with the buffer back in the pool, taken
// once and put once.
func TestRouterHandsBufferOn(t *testing.T) {
	s := sim.NewScheduler()
	n := New(s, 1)
	pool := buf.NewPool()
	n.SetPool(pool)
	src, dst := n.NewNode("src"), n.NewNode("dst")
	r := n.NewRouter("r")
	up := n.NewLink(src, r.Node, LinkConfig{BitErrorRate: 1})
	r.AddRoute(dst, n.NewLink(r.Node, dst, LinkConfig{}))
	if err := SendVia(up, dst, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	carried := up.q.peek()
	ref := carried.ref
	got := 0
	dst.SetHandler(func(p *Packet) {
		got++
		if p != carried || p.ref != ref || ref.Shared() {
			t.Error("the next hop got another packet or buffer")
		}
		if p.Corrupted || p.From != r.Node.id {
			t.Errorf("forwarded packet: Corrupted %v, From %d; want false, %d", p.Corrupted, p.From, r.Node.id)
		}
	})
	s.Run()
	if got != 1 || up.Stats.Corrupted != 1 {
		t.Fatalf("delivered %d, corrupted %d; want 1 and 1", got, up.Stats.Corrupted)
	}
	if st := pool.Stats(); st.Gets != 1 || st.Puts != 1 {
		t.Errorf("pool gets %d, puts %d; want 1 and 1", st.Gets, st.Puts)
	}
}

// A routed packet dropped at the router — no route, the next hop down,
// its queue full, or too big for it — has its buffer released exactly
// once: the pool has as many back as it handed out.
func TestRouterDropsReleaseOnce(t *testing.T) {
	for _, c := range []struct {
		name  string
		cfg   LinkConfig
		down  bool
		route bool
		count func(*Link, *Router) int64
	}{
		{"unrouted", LinkConfig{}, false, false, func(_ *Link, r *Router) int64 { return r.Unrouted }},
		{"down", LinkConfig{}, true, true, func(l *Link, _ *Router) int64 { return l.Stats.DownDrops }},
		{"queue", LinkConfig{RateBps: 1e3, QueueLimit: 1}, false, true, func(l *Link, _ *Router) int64 { return l.Stats.QueueDrops }},
		{"mtu", LinkConfig{MTU: 4}, false, true, func(l *Link, _ *Router) int64 { return l.Stats.Rejected }},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := sim.NewScheduler()
			n := New(s, 1)
			pool := buf.NewPool()
			n.SetPool(pool)
			src, dst := n.NewNode("src"), n.NewNode("dst")
			r := n.NewRouter("r")
			up := n.NewLink(src, r.Node, LinkConfig{})
			out := n.NewLink(r.Node, dst, c.cfg)
			if c.route {
				r.AddRoute(dst, out)
			}
			out.SetDown(c.down)
			for i := 0; i < 3; i++ {
				if err := SendVia(up, dst, []byte("hello")); err != nil {
					t.Fatal(err)
				}
			}
			s.Run()
			if got := c.count(out, r); got < 1 {
				t.Errorf("no %s drop counted", c.name)
			}
			if st := pool.Stats(); st.Gets != 3 || st.Puts != 3 {
				t.Errorf("pool gets %d, puts %d; want 3 and 3", st.Gets, st.Puts)
			}
		})
	}
}

func TestRouterUnrouted(t *testing.T) {
	s := sim.NewScheduler()
	n := New(s, 1)
	src := n.NewNode("src")
	dst := n.NewNode("dst")
	r := n.NewRouter("r")
	up := n.NewLink(src, r.Node, LinkConfig{})
	SendVia(up, dst, []byte("x"))
	s.Run()
	if r.Unrouted != 1 {
		t.Errorf("Unrouted = %d, want 1", r.Unrouted)
	}
}

func TestRouterSharedBottleneckCongestion(t *testing.T) {
	// Two senders share one slow output link with a short queue:
	// drop-tail congestion losses must appear (the paper's "data may be
	// lost due to congestion overflow").
	s := sim.NewScheduler()
	n := New(s, 1)
	s1 := n.NewNode("s1")
	s2 := n.NewNode("s2")
	dst := n.NewNode("dst")
	r := n.NewRouter("r")
	up1 := n.NewLink(s1, r.Node, LinkConfig{RateBps: 1e8})
	up2 := n.NewLink(s2, r.Node, LinkConfig{RateBps: 1e8})
	down := n.NewLink(r.Node, dst, LinkConfig{RateBps: 1e6, QueueLimit: 10})
	r.AddRoute(dst, down)

	delivered := 0
	dst.SetHandler(func(p *Packet) { delivered++ })
	for i := 0; i < 100; i++ {
		SendVia(up1, dst, make([]byte, 1000))
		SendVia(up2, dst, make([]byte, 1000))
	}
	s.Run()
	if down.Stats.QueueDrops == 0 {
		t.Error("no congestion drops at the bottleneck")
	}
	if delivered == 0 || delivered == 200 {
		t.Errorf("delivered = %d, want partial delivery", delivered)
	}
}

func TestDuplexLinks(t *testing.T) {
	s := sim.NewScheduler()
	n := New(s, 1)
	a := n.NewNode("a")
	b := n.NewNode("b")
	ab, ba := n.NewDuplex(a, b, LinkConfig{})
	gotA, gotB := false, false
	a.SetHandler(func(p *Packet) { gotA = true })
	b.SetHandler(func(p *Packet) { gotB = true })
	ab.Send([]byte{1})
	ba.Send([]byte{2})
	s.Run()
	if !gotA || !gotB {
		t.Errorf("duplex delivery: a=%v b=%v", gotA, gotB)
	}
	if ab.From() != a || ab.To() != b || ba.From() != b || ba.To() != a {
		t.Error("duplex endpoints wrong")
	}
}

func TestNodeAccessors(t *testing.T) {
	s := sim.NewScheduler()
	n := New(s, 1)
	a := n.NewNode("alpha")
	if a.Name() != "alpha" {
		t.Errorf("Name = %q", a.Name())
	}
	b := n.NewNode("beta")
	if a.id == b.id {
		t.Error("node IDs not unique")
	}
}

func TestCrossNetworkLinkPanics(t *testing.T) {
	s := sim.NewScheduler()
	n1 := New(s, 1)
	n2 := New(s, 2)
	a := n1.NewNode("a")
	b := n2.NewNode("b")
	defer func() {
		if recover() == nil {
			t.Error("cross-network link did not panic")
		}
	}()
	n1.NewLink(a, b, LinkConfig{})
}

func TestLinkDownDropsNewSends(t *testing.T) {
	s, _, _, b, l := pair(t, LinkConfig{Delay: time.Millisecond}, 1)
	delivered := 0
	b.SetHandler(func(p *Packet) { delivered++ })
	l.SetDown(true)
	if !l.Down() {
		t.Fatal("link not down after SetDown(true)")
	}
	for i := 0; i < 3; i++ {
		if err := l.Send([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	s.Run()
	if delivered != 0 {
		t.Errorf("delivered = %d on a down link", delivered)
	}
	if l.Stats.DownDrops != 3 {
		t.Errorf("down drops = %d, want 3", l.Stats.DownDrops)
	}
	// Down drops are distinct from queue and line losses.
	if l.Stats.QueueDrops != 0 || l.Stats.LineLosses != 0 {
		t.Errorf("misclassified drops: %+v", l.Stats)
	}
	l.SetDown(false)
	l.Send([]byte("y"))
	s.Run()
	if delivered != 1 {
		t.Errorf("delivered = %d after link back up, want 1", delivered)
	}
}

func TestLinkDownDropsQueuedPackets(t *testing.T) {
	// Packets mid-serialization when the link goes down are dropped at
	// their departure instant under DropOnDown.
	s, _, _, b, l := pair(t, LinkConfig{RateBps: 1e6}, 1)
	delivered := 0
	b.SetHandler(func(p *Packet) { delivered++ })
	for i := 0; i < 4; i++ {
		l.Send(make([]byte, 1000)) // 8 ms serialization each
	}
	s.RunUntil(sim.Time(9 * time.Millisecond)) // first has departed
	l.SetDown(true)
	s.Run()
	if delivered != 1 {
		t.Errorf("delivered = %d, want 1", delivered)
	}
	if l.Stats.DownDrops != 3 {
		t.Errorf("down drops = %d, want 3", l.Stats.DownDrops)
	}
}

func TestLinkHoldOnDownParksAndReplays(t *testing.T) {
	s, _, _, b, l := pair(t, LinkConfig{RateBps: 1e6, OnDown: HoldOnDown}, 1)
	var arrivals []sim.Time
	var got []byte
	b.SetHandler(func(p *Packet) {
		arrivals = append(arrivals, s.Now())
		got = append(got, p.Payload[0])
	})
	l.SetDown(true)
	l.Send([]byte{1})
	l.Send([]byte{2})
	l.Send([]byte{3})
	if l.HeldLen() != 3 {
		t.Fatalf("held = %d, want 3", l.HeldLen())
	}
	s.RunUntil(sim.Time(50 * time.Millisecond))
	if len(arrivals) != 0 {
		t.Fatal("held packets delivered while down")
	}
	l.SetDown(false)
	s.Run()
	if string(got) != "\x01\x02\x03" {
		t.Errorf("order = %v, want FIFO 1,2,3", got)
	}
	// Serialization restarts at the up-transition: 1-byte packets at
	// 1 Mbps take 8 us each, back to back from t=50ms.
	if len(arrivals) != 3 || arrivals[0] != sim.Time(50*time.Millisecond+8*time.Microsecond) {
		t.Errorf("arrivals = %v", arrivals)
	}
	if l.Stats.HeldPackets != 3 || l.Stats.DownDrops != 0 {
		t.Errorf("stats = %+v", l.Stats)
	}
}

func TestLinkHoldOnDownMidFlight(t *testing.T) {
	// A packet serializing at down-transition is parked, not dropped,
	// and replays after the flap.
	s, _, _, b, l := pair(t, LinkConfig{RateBps: 1e6, OnDown: HoldOnDown}, 1)
	delivered := 0
	b.SetHandler(func(p *Packet) { delivered++ })
	l.Send(make([]byte, 1000)) // departs at 8 ms
	s.RunUntil(sim.Time(1 * time.Millisecond))
	l.SetDown(true)
	s.RunUntil(sim.Time(20 * time.Millisecond))
	if delivered != 0 || l.HeldLen() != 1 {
		t.Fatalf("delivered=%d held=%d mid-flap", delivered, l.HeldLen())
	}
	l.SetDown(false)
	s.Run()
	if delivered != 1 {
		t.Errorf("delivered = %d after flap, want 1", delivered)
	}
}

func TestLinkHoldOnDownRespectsQueueLimit(t *testing.T) {
	_, _, _, _, l := pair(t, LinkConfig{RateBps: 1e6, QueueLimit: 2, OnDown: HoldOnDown}, 1)
	l.SetDown(true)
	for i := 0; i < 5; i++ {
		l.Send([]byte{byte(i)})
	}
	if l.HeldLen() != 2 {
		t.Errorf("held = %d, want 2 (QueueLimit)", l.HeldLen())
	}
	if l.Stats.QueueDrops != 3 {
		t.Errorf("queue drops = %d, want 3", l.Stats.QueueDrops)
	}
}

func TestUpdateConfigTakesEffect(t *testing.T) {
	s, _, _, b, l := pair(t, LinkConfig{Delay: time.Millisecond}, 1)
	delivered := 0
	b.SetHandler(func(p *Packet) { delivered++ })
	l.Send([]byte("a"))
	s.Run()
	cfg := l.Config()
	cfg.LossProb = 1 // degrade: total loss
	l.UpdateConfig(cfg)
	l.Send([]byte("b"))
	s.Run()
	cfg.LossProb = 0 // restore
	l.UpdateConfig(cfg)
	l.Send([]byte("c"))
	s.Run()
	if delivered != 2 {
		t.Errorf("delivered = %d, want 2", delivered)
	}
	if l.Stats.LineLosses != 1 {
		t.Errorf("line losses = %d, want 1", l.Stats.LineLosses)
	}
}

func TestLinksBetween(t *testing.T) {
	s := sim.NewScheduler()
	n := New(s, 1)
	a1, a2 := n.NewNode("a1"), n.NewNode("a2")
	b1 := n.NewNode("b1")
	ab, ba := n.NewDuplex(a1, b1, LinkConfig{})
	aa, _ := n.NewDuplex(a1, a2, LinkConfig{})
	cut := n.LinksBetween([]*Node{a1, a2}, []*Node{b1})
	if len(cut) != 2 {
		t.Fatalf("cut = %d links, want 2", len(cut))
	}
	for _, l := range cut {
		if l == aa {
			t.Error("intra-group link in cut set")
		}
	}
	if (cut[0] != ab && cut[1] != ab) || (cut[0] != ba && cut[1] != ba) {
		t.Error("cut set missing a crossing link")
	}
	if len(n.Links()) != 4 {
		t.Errorf("Links() = %d, want 4", len(n.Links()))
	}
}

// TestUpdateConfigShrinkBelowBacklog: shrinking QueueLimit under the
// live backlog must drop the excess (newest first) with the distinct
// "shrink" cause, never panic, and never deliver a disowned packet.
func TestUpdateConfigShrinkBelowBacklog(t *testing.T) {
	s, n, _, b, l := pair(t, LinkConfig{RateBps: 1e6, QueueLimit: 10}, 1)
	tr := tracing.New(s)
	n.SetTracer(tr)
	var got []byte
	b.SetHandler(func(p *Packet) { got = append(got, p.Payload[0]) })
	for i := 0; i < 8; i++ {
		if err := l.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if l.QueueLen() != 8 {
		t.Fatalf("queued = %d before shrink, want 8", l.QueueLen())
	}

	cfg := l.Config()
	cfg.QueueLimit = 3
	l.UpdateConfig(cfg) // all 8 already committed to serialization

	if l.QueueLen() != 3 {
		t.Errorf("queued = %d after shrink, want 3", l.QueueLen())
	}
	if l.Stats.ShrinkDrops != 5 {
		t.Errorf("shrink drops = %d, want 5", l.Stats.ShrinkDrops)
	}
	if l.Stats.QueueDrops != 0 {
		t.Errorf("queue drops = %d, want 0 (shrink is a distinct cause)", l.Stats.QueueDrops)
	}

	s.Run()
	// Oldest survive: the newest five were shed.
	if string(got) != "\x00\x01\x02" {
		t.Errorf("delivered = %v, want oldest three [0 1 2]", got)
	}
	if l.Stats.Delivered != 3 {
		t.Errorf("delivered stat = %d, want 3", l.Stats.Delivered)
	}

	shrinks := 0
	for _, e := range tr.Events() {
		if e.Kind == tracing.NetDrop && e.Cause == "shrink" {
			shrinks++
		}
	}
	if shrinks != 5 {
		t.Errorf("traced %d shrink drops, want 5", shrinks)
	}
}

// TestUpdateConfigShrinkHeldPackets: packets parked by HoldOnDown are
// freed outright by a shrink — before committed ones — and the
// survivors still replay in order on link-up.
func TestUpdateConfigShrinkHeldPackets(t *testing.T) {
	s, _, _, b, l := pair(t, LinkConfig{RateBps: 1e6, QueueLimit: 10, OnDown: HoldOnDown}, 1)
	var got []byte
	b.SetHandler(func(p *Packet) { got = append(got, p.Payload[0]) })
	l.SetDown(true)
	for i := 0; i < 5; i++ {
		l.Send([]byte{byte(i)})
	}
	if l.HeldLen() != 5 {
		t.Fatalf("held = %d, want 5", l.HeldLen())
	}

	cfg := l.Config()
	cfg.QueueLimit = 2
	l.UpdateConfig(cfg)

	if l.HeldLen() != 2 {
		t.Errorf("held = %d after shrink, want 2", l.HeldLen())
	}
	if l.Stats.ShrinkDrops != 3 {
		t.Errorf("shrink drops = %d, want 3", l.Stats.ShrinkDrops)
	}

	l.SetDown(false)
	s.Run()
	if string(got) != "\x00\x01" {
		t.Errorf("delivered = %v, want oldest two [0 1]", got)
	}
}

// TestUpdateConfigShrinkIdempotent: re-applying the same (or a looser)
// limit over an already-shed backlog drops nothing more, and growing
// the limit never resurrects shed packets.
func TestUpdateConfigShrinkIdempotent(t *testing.T) {
	s, _, _, b, l := pair(t, LinkConfig{RateBps: 1e6, QueueLimit: 10}, 1)
	delivered := 0
	b.SetHandler(func(p *Packet) { delivered++ })
	for i := 0; i < 6; i++ {
		l.Send(make([]byte, 100))
	}
	cfg := l.Config()
	cfg.QueueLimit = 2
	l.UpdateConfig(cfg)
	if l.Stats.ShrinkDrops != 4 {
		t.Fatalf("shrink drops = %d, want 4", l.Stats.ShrinkDrops)
	}
	l.UpdateConfig(cfg) // same limit again: nothing left to shed
	if l.Stats.ShrinkDrops != 4 {
		t.Errorf("re-shrink dropped more: %d, want 4", l.Stats.ShrinkDrops)
	}
	cfg.QueueLimit = 10
	l.UpdateConfig(cfg) // growing back must not resurrect anything
	s.Run()
	if delivered != 2 {
		t.Errorf("delivered = %d, want 2", delivered)
	}
	if l.QueueLen() != 0 {
		t.Errorf("queue gauge = %d after drain, want 0", l.QueueLen())
	}
}

// TestUpdateConfigShrinkUnlimited: dropping the limit to 0 (unlimited)
// sheds nothing regardless of backlog.
func TestUpdateConfigShrinkUnlimited(t *testing.T) {
	s, _, _, b, l := pair(t, LinkConfig{RateBps: 1e6, QueueLimit: 4}, 1)
	delivered := 0
	b.SetHandler(func(p *Packet) { delivered++ })
	for i := 0; i < 4; i++ {
		l.Send(make([]byte, 100))
	}
	cfg := l.Config()
	cfg.QueueLimit = 0
	l.UpdateConfig(cfg)
	if l.Stats.ShrinkDrops != 0 {
		t.Errorf("shrink drops = %d, want 0", l.Stats.ShrinkDrops)
	}
	s.Run()
	if delivered != 4 {
		t.Errorf("delivered = %d, want 4", delivered)
	}
}

// TestNilRegistryBindsNothing: links on a network without SetMetrics
// allocate their own state (struct, timers, their place in the link
// list — 14 for the pair) and nothing for metrics.
func TestNilRegistryBindsNothing(t *testing.T) {
	n := New(sim.NewScheduler(), 1)
	a, b := n.NewNode("a"), n.NewNode("b")
	allocs := testing.AllocsPerRun(100, func() { n.NewDuplex(a, b, LinkConfig{}) })
	if allocs > 16 {
		t.Errorf("NewDuplex on a nil registry: %.0f allocs, want <= 16", allocs)
	}
}
