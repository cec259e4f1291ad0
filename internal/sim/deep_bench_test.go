package sim

import "testing"

const armed = 65536 // the depth a 64k-flow shard gives the queue

// deepQueue returns a warm scheduler holding armed timers spread over
// the next armed ticks; each expiry re-arms its timer a random way
// ahead. Warm means its bucket arrays have grown to what the churn
// needs: it has run a few expiries per timer, and then until none is
// due at Now.
func deepQueue() (*Scheduler, []*Timer, *Rand) {
	s := NewScheduler()
	rng := NewRand(1)
	timers := make([]*Timer, armed)
	for i := range timers {
		var t *Timer
		t = s.NewTimer(func() { t.Reset(Duration(1 + rng.Intn(armed))) })
		t.Reset(Duration(1 + rng.Intn(armed)))
		timers[i] = t
	}
	for i := 0; i < 4*armed || s.queue.peek().at == s.Now(); i++ {
		popReset(s, timers, rng)
	}
	return s, timers, rng
}

// popReset is one expiry (pop, then the callback's Reset pushes the
// slot back) plus one Reset of a timer that is still pending (re-keyed
// in place).
func popReset(s *Scheduler, timers []*Timer, rng *Rand) {
	s.Step()
	timers[rng.Intn(armed)].Reset(Duration(1 + rng.Intn(armed)))
}

// TestSchedulerZeroAlloc: on a warm queue of 65536 armed timers,
// neither expiries with re-arms nor one-shot events, the datapath's
// pooled ones or a func built once, allocate, not even now and then as
// a bucket outgrows its array.
func TestSchedulerZeroAlloc(t *testing.T) {
	s, timers, rng := deepQueue()
	count := func(any) {}
	fn := func() {}
	for _, c := range []struct {
		name  string
		cycle func()
	}{
		{"pop+Reset", func() { popReset(s, timers, rng) }},
		{"AtCall+Step", func() { s.AtCall(s.Now(), count, nil); s.Step() }},
		{"At+After+Step", func() { s.At(s.Now(), fn); s.After(0, fn); s.Step(); s.Step() }},
	} {
		allocs := testing.AllocsPerRun(1, func() {
			for i := 0; i < 100000; i++ {
				c.cycle()
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocations over 100000 cycles", c.name, allocs)
		}
	}
	if s.Pending() != armed {
		t.Fatalf("%d timers pending, want %d", s.Pending(), armed)
	}
}

// BenchmarkSchedulerDeep measures the event queue at the depth a
// 64k-flow shard gives it: 65536 armed timers stay queued throughout.
// Neither steady state may allocate (TestSchedulerZeroAlloc).
func BenchmarkSchedulerDeep(b *testing.B) {
	b.Run("pop+Reset", func(b *testing.B) {
		s, timers, rng := deepQueue()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			popReset(s, timers, rng)
		}
		b.StopTimer()
		if s.Pending() != armed {
			b.Fatalf("%d timers pending, want %d", s.Pending(), armed)
		}
	})

	// The datapath's form: a pooled fire-and-forget event scheduled just
	// ahead of the armed timers, then fired.
	b.Run("AtCall", func(b *testing.B) {
		s, _, _ := deepQueue()
		fired := 0
		count := func(any) { fired++ }
		now := s.Now()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.AtCall(now, count, nil)
			s.Step()
		}
		b.StopTimer()
		if fired != b.N {
			b.Fatalf("fired %d of %d", fired, b.N)
		}
	})
}
