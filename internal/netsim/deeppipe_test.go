package netsim

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// TestDeepPipeHeapBounded is the huge-RTT scaling guarantee: a link
// whose bandwidth-delay product holds tens of thousands of packets in
// flight must not put one scheduler heap entry per packet — the
// transit FIFO services the whole pipe with a single timer, so the
// heap stays O(links) regardless of depth.
func TestDeepPipeHeapBounded(t *testing.T) {
	sched := sim.NewScheduler()
	net := New(sched, 1)
	a, b := net.NewNode("a"), net.NewNode("b")
	// 1 Gb/s at 2 s one-way: the pipe holds ~250 MB. 50k packets of
	// 1 KiB fill a quarter of it.
	l := net.NewLink(a, b, LinkConfig{RateBps: 1e9, Delay: 2 * time.Second})
	var got int
	b.SetHandler(func(p *Packet) { got++ })

	const n = 50_000
	payload := make([]byte, 1024)
	for i := 0; i < n; i++ {
		if err := l.Send(payload); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	// Serialize everything into flight: 50k packets at 1 Gb/s is
	// ~0.4 s of wire time, all airborne before the 2 s delay elapses.
	if err := sched.RunUntil(sim.Time(0).Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	inFlight := n - got
	if inFlight < n/2 {
		t.Fatalf("expected a deep pipe, only %d in flight", inFlight)
	}
	if p := sched.Pending(); p > 64 {
		t.Fatalf("scheduler heap holds %d events with %d packets in flight; want O(links), not O(pipe)", p, inFlight)
	}
	if err := sched.RunUntil(sim.Time(0).Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if got != n {
		t.Fatalf("delivered %d of %d", got, n)
	}
	if d := l.Stats.Delivered; d != n {
		t.Fatalf("link stats delivered %d of %d", d, n)
	}
}

// TestDeepPipeOrderWithReorder checks the transit FIFO's fallback: a
// reorder-delayed packet (non-monotone due time) still arrives, and
// in-order traffic around it is unaffected.
func TestDeepPipeOrderWithReorder(t *testing.T) {
	sched := sim.NewScheduler()
	net := New(sched, 7)
	a, b := net.NewNode("a"), net.NewNode("b")
	l := net.NewLink(a, b, LinkConfig{
		RateBps: 10e6, Delay: 50 * time.Millisecond,
		ReorderProb: 0.2, ReorderDelay: 30 * time.Millisecond,
	})
	var got int
	b.SetHandler(func(p *Packet) { got++ })
	payload := make([]byte, 512)
	const n = 2000
	for i := 0; i < n; i++ {
		if err := l.Send(payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := sched.RunUntil(sim.Time(0).Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if got != n {
		t.Fatalf("delivered %d of %d", got, n)
	}
	if l.Stats.Reordered == 0 {
		t.Fatal("expected some reordered packets at ReorderProb 0.2")
	}
}
