package parallel

import (
	"testing"
	"time"

	alf "repro/internal/core"
	"repro/internal/sim"
)

func TestStageServiceTime(t *testing.T) {
	st := &Stage{RateBps: 1e6} // 1 MB/s
	finish := st.Process(0, 1_000_000)
	if finish != sim.Time(time.Second) {
		t.Errorf("finish = %v, want 1s", finish)
	}
	// Second job queues behind the first.
	finish = st.Process(0, 500_000)
	if finish != sim.Time(1500*time.Millisecond) {
		t.Errorf("queued finish = %v, want 1.5s", finish)
	}
	// A job arriving after the queue drains starts immediately.
	finish = st.Process(sim.Time(2*time.Second), 500_000)
	if finish != sim.Time(2500*time.Millisecond) {
		t.Errorf("idle-start finish = %v, want 2.5s", finish)
	}
	if st.Jobs != 3 || st.Bytes != 2_000_000 {
		t.Errorf("stage stats: %+v", st)
	}
}

func TestDirectDispatchScalesWithWorkers(t *testing.T) {
	// A fixed 4 MB workload split round-robin: makespan should fall
	// roughly linearly with the worker count.
	makespan := func(n int) sim.Time {
		s := sim.NewScheduler()
		p := NewPool(s, n, 1e6, 0)
		for i := 0; i < 40; i++ {
			p.DispatchAt(0, i%n, 100_000)
		}
		return p.LastFinish
	}
	m1 := makespan(1)
	m4 := makespan(4)
	if m4 >= m1/3 {
		t.Errorf("4 workers (%v) not ~4x faster than 1 (%v)", m4, m1)
	}
}

func TestSerialFrontEndBottlenecks(t *testing.T) {
	// With a serial front end at worker rate, adding workers cannot
	// help: the hot spot caps throughput (the paper's point).
	makespan := func(n int) sim.Time {
		s := sim.NewScheduler()
		p := NewPool(s, n, 1e6, 1e6)
		for i := 0; i < 40; i++ {
			p.DispatchAt(0, i%n, 100_000)
		}
		return p.LastFinish
	}
	m1 := makespan(1)
	m8 := makespan(8)
	// The serial stage takes 4s for 4 MB regardless; allow the last
	// job's worker service on top.
	if m8 < m1*3/4 {
		t.Errorf("serial-fronted pool sped up with workers: %v vs %v", m8, m1)
	}
}

func TestHandleADUUsesTagForDelivery(t *testing.T) {
	s := sim.NewScheduler()
	p := NewPool(s, 4, 1e6, 0)
	for i := 0; i < 8; i++ {
		p.HandleADU(alf.ADU{Name: uint64(i), Tag: uint64(i % 4), Data: make([]byte, 1000)})
	}
	for i, w := range p.Workers {
		if w.Jobs != 2 || w.Bytes != 2000 {
			t.Errorf("worker %d jobs = %d bytes = %d, want 2 and 2000", i, w.Jobs, w.Bytes)
		}
	}
	if p.Dispatched != 8 {
		t.Errorf("pool stats: dispatched=%d", p.Dispatched)
	}
}

// TestUtilization: each worker's busy time over the pool's makespan is
// its utilization, and an empty pool reports neither.
func TestUtilization(t *testing.T) {
	s := sim.NewScheduler()
	p := NewPool(s, 2, 1e6, 0)
	p.DispatchAt(0, 0, 1_000_000) // worker 0 busy 1s
	p.DispatchAt(0, 1, 500_000)   // worker 1 busy 0.5s
	if p.LastFinish != sim.Time(time.Second) {
		t.Errorf("makespan = %v, want 1s", p.LastFinish)
	}
	if b0, b1 := p.Workers[0].BusyTime, p.Workers[1].BusyTime; b0 != time.Second || b1 != time.Second/2 {
		t.Errorf("busy times %v and %v, want 1s and 0.5s", b0, b1)
	}
	p2 := NewPool(s, 2, 1e6, 0)
	for _, w := range p2.Workers {
		if w.BusyTime != 0 || p2.LastFinish != 0 {
			t.Error("empty pool has busy time or a makespan")
		}
	}
}
