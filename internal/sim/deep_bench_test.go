package sim

import "testing"

// BenchmarkSchedulerDeep measures the event queue at the depth a
// 64k-flow shard gives it: 65536 armed timers stay queued throughout.
// Neither steady state may allocate.
func BenchmarkSchedulerDeep(b *testing.B) {
	const armed = 65536
	// deep returns a scheduler holding armed timers spread over the next
	// armed ticks; each expiry re-arms its timer a random way ahead.
	deep := func() (*Scheduler, []*Timer, *Rand) {
		s := NewScheduler()
		rng := NewRand(1)
		timers := make([]*Timer, armed)
		for i := range timers {
			var t *Timer
			t = s.NewTimer(func() { t.Reset(Duration(1 + rng.Intn(armed))) })
			t.Reset(Duration(1 + rng.Intn(armed)))
			timers[i] = t
		}
		return s, timers, rng
	}

	// One expiry (pop, then the callback's Reset pushes the slot back)
	// plus one Reset of a timer that is still pending (re-keyed in place).
	b.Run("pop+Reset", func(b *testing.B) {
		s, timers, rng := deep()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Step()
			timers[rng.Intn(armed)].Reset(Duration(1 + rng.Intn(armed)))
		}
		b.StopTimer()
		if s.Pending() != armed {
			b.Fatalf("%d timers pending, want %d", s.Pending(), armed)
		}
	})

	// The datapath's form: a pooled fire-and-forget event scheduled just
	// ahead of the armed timers, then fired.
	b.Run("AtCall", func(b *testing.B) {
		s, _, _ := deep()
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
