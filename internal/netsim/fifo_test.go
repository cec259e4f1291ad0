package netsim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/sim"
)

// TestPktFIFO drives random pushes and pops against a plain slice and
// checks the ring stops growing once the depth does: it ends the
// smallest power of two, eight at least, that holds the deepest queue.
func TestPktFIFO(t *testing.T) {
	var f pktFIFO
	var model []*Packet
	rng := rand.New(rand.NewSource(1))
	const maxDepth = 100
	deepest := 0
	for i := 0; i < 100000; i++ {
		if len(model) > 0 && (len(model) == maxDepth || rng.Intn(2) == 0) {
			if got := f.pop(); got != model[0] {
				t.Fatalf("op %d: pop returned the wrong packet", i)
			}
			model = model[1:]
		} else {
			p := &Packet{}
			f.push(p)
			model = append(model, p)
		}
		deepest = max(deepest, len(model))
		if f.len() != len(model) {
			t.Fatalf("op %d: len = %d, want %d", i, f.len(), len(model))
		}
		if len(model) > 0 && f.peek() != model[0] {
			t.Fatalf("op %d: head is not the oldest packet", i)
		}
		if len(model) > 0 && f.at(len(model)-1) != model[len(model)-1] {
			t.Fatalf("op %d: tail is not the newest packet", i)
		}
	}
	want := 8
	for want < deepest {
		want *= 2
	}
	if len(f.buf) != want {
		t.Errorf("ring grew to %d for a depth of at most %d, want %d", len(f.buf), deepest, want)
	}
}

// TestShrinkShedMidQueueDeparts: packets shed by a QueueLimit shrink
// stay in the committed queue until their departure events fire, with
// live packets queued behind them; every departure must still find its
// packet at the head.
func TestShrinkShedMidQueueDeparts(t *testing.T) {
	s, _, _, b, l := pair(t, LinkConfig{RateBps: 1e6, QueueLimit: 10}, 1)
	var got []byte
	b.SetHandler(func(p *Packet) { got = append(got, p.Payload[0]) })
	for i := 0; i < 8; i++ {
		l.Send([]byte{byte(i)})
	}
	cfg := l.Config()
	cfg.QueueLimit = 3
	l.UpdateConfig(cfg) // sheds the newest five: 3..7
	cfg.QueueLimit = 10
	l.UpdateConfig(cfg)
	for i := 8; i < 11; i++ {
		l.Send([]byte{byte(i)}) // queued behind the shed packets
	}
	if l.QueueLen() != 6 || l.q.len() != 11 {
		t.Fatalf("queued = %d (%d slots), want 6 live in 11 slots", l.QueueLen(), l.q.len())
	}
	s.Run()
	if string(got) != "\x00\x01\x02\x08\x09\x0a" {
		t.Errorf("delivered = %v, want [0 1 2 8 9 10]", got)
	}
	if l.QueueLen() != 0 || l.q.len() != 0 {
		t.Errorf("queue not empty after drain: %d live, %d slots", l.QueueLen(), l.q.len())
	}
	if l.Stats.ShrinkDrops != 5 || l.Stats.Delivered != 6 {
		t.Errorf("stats = %+v", l.Stats)
	}
}

// TestHoldOnDownReenqueueOrder: a flap shorter than the committed
// backlog leaves packets in the queue across the up-transition; the
// held ones re-enter behind them, and the link-down departures re-enter
// in the order they were parked.
func TestHoldOnDownReenqueueOrder(t *testing.T) {
	s, _, _, b, l := pair(t, LinkConfig{RateBps: 1e6, OnDown: HoldOnDown}, 1)
	var got []byte
	b.SetHandler(func(p *Packet) { got = append(got, p.Payload[0]) })
	// 125-byte packets: 1 ms each at 1 Mbps.
	send := func(tag byte) { l.Send(append([]byte{tag}, make([]byte, 124)...)) }
	send(1)
	send(2)
	send(3)
	s.RunUntil(sim.Time(500 * time.Microsecond))
	l.SetDown(true)
	send(4) // parked at once
	s.RunUntil(sim.Time(1500 * time.Microsecond))
	// 1 finished serializing while down and was parked behind 4; 2 and 3
	// are still committed.
	if l.HeldLen() != 2 || l.QueueLen() != 2 {
		t.Fatalf("held %d, queued %d; want 2 and 2", l.HeldLen(), l.QueueLen())
	}
	l.SetDown(false)
	send(5)
	s.Run()
	if string(got) != "\x02\x03\x04\x01\x05" {
		t.Errorf("order = %v, want [2 3 4 1 5]", got)
	}
	if l.QueueLen() != 0 || l.q.len() != 0 || l.HeldLen() != 0 {
		t.Errorf("link not drained: queued %d (%d slots), held %d", l.QueueLen(), l.q.len(), l.HeldLen())
	}
}

// TestQueueCompactsUnderStandingBacklog passes many times the backlog
// through a link that never drains, so the queue's head index wraps
// round the ring repeatedly; order holds and the ring stays
// proportional to the backlog.
func TestQueueCompactsUnderStandingBacklog(t *testing.T) {
	s, _, _, b, l := pair(t, LinkConfig{RateBps: 8e6}, 1)
	const backlog = 64
	tx := l.serialization(1) // the link is never idle, so departures are tx apart
	next, want := 0, 0
	b.SetHandler(func(p *Packet) {
		if int(p.Payload[0]) != want%251 {
			t.Fatalf("delivery %d carries tag %d", want, p.Payload[0])
		}
		want++
	})
	send := func() {
		l.Send([]byte{byte(next % 251)})
		next++
	}
	for i := 0; i < backlog; i++ {
		send()
	}
	for i := 0; i < 20*backlog; i++ {
		send()
		s.RunFor(tx) // one departure
		if l.QueueLen() != backlog {
			t.Fatalf("step %d: backlog %d, want %d", i, l.QueueLen(), backlog)
		}
	}
	if c := len(l.q.buf); c > 2*backlog {
		t.Errorf("queue ring grew to %d for a backlog of %d", c, backlog)
	}
	s.Run()
	if want != next {
		t.Errorf("delivered %d of %d", want, next)
	}
}

// BenchmarkLinkDeepQueue measures one enqueue plus one departure and
// delivery on a link holding a standing backlog. The per-packet cost
// must not depend on the backlog (the queue is a FIFO, and the 16384
// pending departures only deepen the scheduler's heap by a few levels),
// and the steady state must not allocate.
func BenchmarkLinkDeepQueue(b *testing.B) {
	for _, backlog := range []int{16, 16384} {
		b.Run(fmt.Sprintf("backlog=%d", backlog), func(b *testing.B) {
			s := sim.NewScheduler()
			n := New(s, 1)
			src, dst := n.NewNode("src"), n.NewNode("dst")
			l := n.NewLink(src, dst, LinkConfig{RateBps: 1e9})
			got := 0
			dst.SetHandler(func(p *Packet) { got++ })
			payload := make([]byte, 64)
			tx := l.serialization(len(payload)) // the link is never idle, so departures are tx apart
			for i := 0; i < backlog; i++ {
				l.Send(payload)
			}
			step := func() {
				l.Send(payload)
				_ = s.RunFor(tx) // one departure
			}
			for i := 0; i < 2*backlog; i++ {
				step() // settle the queue's and the pools' capacity
			}
			got = 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
			b.StopTimer()
			if got != b.N || l.QueueLen() != backlog {
				b.Fatalf("delivered %d of %d, backlog %d", got, b.N, l.QueueLen())
			}
		})
	}
}
