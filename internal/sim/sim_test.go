package sim

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func TestSchedulerOrdering(t *testing.T) {
	s := NewScheduler()
	var got []int
	s.After(30*time.Millisecond, func() { got = append(got, 3) })
	s.After(10*time.Millisecond, func() { got = append(got, 1) })
	s.After(20*time.Millisecond, func() { got = append(got, 2) })
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fire order %v, want %v", got, want)
		}
	}
	if s.Now() != Time(30*time.Millisecond) {
		t.Errorf("clock = %v, want 30ms", s.Now())
	}
}

func TestSchedulerFIFOAtSameTime(t *testing.T) {
	s := NewScheduler()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(Time(5*time.Millisecond), func() { got = append(got, i) })
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events fired out of schedule order: %v", got)
		}
	}
}

func TestSchedulerNestedScheduling(t *testing.T) {
	s := NewScheduler()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 5 {
			s.After(time.Second, tick)
		}
	}
	s.After(time.Second, tick)
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if count != 5 {
		t.Errorf("count = %d, want 5", count)
	}
	if s.Now() != Time(5*time.Second) {
		t.Errorf("clock = %v, want 5s", s.Now())
	}
}

func TestRunUntil(t *testing.T) {
	s := NewScheduler()
	var got []int
	s.After(1*time.Second, func() { got = append(got, 1) })
	s.After(3*time.Second, func() { got = append(got, 3) })
	if err := s.RunUntil(Time(2 * time.Second)); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("got %v, want [1]", got)
	}
	if s.Now() != Time(2*time.Second) {
		t.Errorf("clock = %v, want 2s (advanced to deadline)", s.Now())
	}
	if s.Pending() != 1 {
		t.Errorf("pending = %d, want 1", s.Pending())
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("second event did not fire: %v", got)
	}
}

func TestRunForAccumulates(t *testing.T) {
	s := NewScheduler()
	if err := s.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	if err := s.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	if s.Now() != Time(2*time.Second) {
		t.Errorf("clock = %v, want 2s", s.Now())
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := NewScheduler()
	s.After(time.Second, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		s.At(0, func() {})
	})
	s.Run()
}

func TestNegativeAfterClamped(t *testing.T) {
	s := NewScheduler()
	fired := false
	s.After(-time.Second, func() { fired = true })
	s.Run()
	if !fired {
		t.Error("negative-delay event did not fire")
	}
	if s.Now() != 0 {
		t.Errorf("clock = %v, want 0", s.Now())
	}
}

func TestStep(t *testing.T) {
	s := NewScheduler()
	a := s.NewTimer(func() {})
	a.Reset(time.Second)
	s.After(2*time.Second, func() {})
	a.Stop()
	if !s.Step() {
		t.Fatal("Step should run the surviving event")
	}
	if s.Now() != Time(2*time.Second) {
		t.Errorf("clock = %v, want 2s (skipped stopped timer)", s.Now())
	}
	if s.Step() {
		t.Error("Step on empty queue reported work")
	}
}

func TestTimer(t *testing.T) {
	s := NewScheduler()
	fired := 0
	tm := s.NewTimer(func() { fired++ })
	if tm.Active() {
		t.Fatal("new timer active")
	}
	tm.Reset(time.Second)
	tm.Reset(2 * time.Second) // re-arm must cancel the first expiry
	if !tm.Active() {
		t.Fatal("armed timer inactive")
	}
	s.Run()
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if s.Now() != Time(2*time.Second) {
		t.Errorf("clock = %v, want 2s", s.Now())
	}
	tm.Reset(time.Second)
	tm.Stop()
	s.Run()
	if fired != 1 {
		t.Errorf("stopped timer fired (count %d)", fired)
	}
}

func TestTimeArithmetic(t *testing.T) {
	tm := Time(0).Add(1500 * time.Millisecond)
	if tm.Seconds() != 1.5 {
		t.Errorf("Seconds = %v, want 1.5", tm.Seconds())
	}
	if tm.Sub(Time(time.Second)) != 500*time.Millisecond {
		t.Errorf("Sub wrong: %v", tm.Sub(Time(time.Second)))
	}
	if tm.String() != "1.5s" {
		t.Errorf("String = %q", tm.String())
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRand(43)
	same := true
	for i := 0; i < 10; i++ {
		if NewRand(42).Uint64() == c.Uint64() {
			continue
		}
		same = false
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestRandBernoulli(t *testing.T) {
	r := NewRand(1)
	if r.Bernoulli(0) {
		t.Error("Bernoulli(0) = true")
	}
	if !r.Bernoulli(1) {
		t.Error("Bernoulli(1) = false")
	}
	n := 0
	const trials = 100000
	for i := 0; i < trials; i++ {
		if r.Bernoulli(0.3) {
			n++
		}
	}
	frac := float64(n) / trials
	if frac < 0.28 || frac > 0.32 {
		t.Errorf("Bernoulli(0.3) rate = %v, want ~0.3", frac)
	}
}

func TestSchedulerFiresInTimestampOrderProperty(t *testing.T) {
	// Any multiset of event times must fire in nondecreasing order.
	f := func(delays []uint16) bool {
		s := NewScheduler()
		var fired []Time
		for _, d := range delays {
			s.After(time.Duration(d)*time.Microsecond, func() {
				fired = append(fired, s.Now())
			})
		}
		if err := s.Run(); err != nil {
			return false
		}
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSchedulerClockNeverRegresses(t *testing.T) {
	// Even with nested scheduling from inside callbacks, Now() is
	// monotone.
	s := NewScheduler()
	prev := Time(0)
	violated := false
	var spawn func(depth int)
	r := NewRand(5)
	spawn = func(depth int) {
		if s.Now() < prev {
			violated = true
		}
		prev = s.Now()
		if depth < 4 {
			for i := 0; i < 3; i++ {
				d := time.Duration(r.Intn(1000)) * time.Microsecond
				s.After(d, func() { spawn(depth + 1) })
			}
		}
	}
	spawn(0)
	s.Run()
	if violated {
		t.Error("clock regressed")
	}
}

// TestDelayPastEndOfTime: a delay that runs past the last instant of
// virtual time is held at that instant by Timer.Reset, After and
// AfterCall alike, so the event fires last and the clock never goes
// back.
func TestDelayPastEndOfTime(t *testing.T) {
	s := NewScheduler()
	var got []Time
	mark := func() { got = append(got, s.Now()) }
	s.At(Time(time.Second), func() {
		s.NewTimer(mark).Reset(math.MaxInt64 - 1)
		s.After(math.MaxInt64, mark)
		s.AfterCall(math.MaxInt64, func(any) { mark() }, nil)
		s.After(time.Second, mark)
	})
	s.Run()
	want := []Time{Time(2 * time.Second), math.MaxInt64, math.MaxInt64, math.MaxInt64}
	if !slices.Equal(got, want) {
		t.Fatalf("fired at %v, want %v", got, want)
	}
}

func TestAtCallOrderingWithAt(t *testing.T) {
	// Pooled and closure events scheduled at the same instant fire in
	// schedule order, preserving determinism across the two forms.
	s := NewScheduler()
	var got []int
	rec := func(arg any) { got = append(got, arg.(int)) }
	s.AtCall(Time(time.Millisecond), rec, 0)
	s.At(Time(time.Millisecond), func() { got = append(got, 1) })
	s.AtCall(Time(time.Millisecond), rec, 2)
	s.AfterCall(time.Millisecond, rec, 3)
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("fire order %v, want [0 1 2 3]", got)
		}
	}
}

func TestAtCallRecyclesEvents(t *testing.T) {
	s := NewScheduler()
	fn := func(any) {}
	s.AtCall(0, fn, nil)
	s.Run()
	if len(s.free) != 1 {
		t.Fatalf("free = %d, want 1", len(s.free))
	}
	// Steady state: schedule+fire from the freelist allocates nothing.
	allocs := testing.AllocsPerRun(1000, func() {
		s.AtCall(s.Now(), fn, nil)
		s.Run()
	})
	if allocs != 0 {
		t.Errorf("pooled schedule/fire allocates %.1f/op", allocs)
	}
}

func TestAtCallNestedFromCallback(t *testing.T) {
	// A pooled callback may schedule again, reusing the struct that was
	// recycled just before it was invoked.
	s := NewScheduler()
	count := 0
	var tick func(any)
	tick = func(arg any) {
		count++
		if n := arg.(int); n > 0 {
			s.AfterCall(time.Second, tick, n-1)
		}
	}
	s.AfterCall(time.Second, tick, 4)
	s.Run()
	if count != 5 {
		t.Errorf("count = %d, want 5", count)
	}
	if s.Now() != Time(5*time.Second) {
		t.Errorf("clock = %v, want 5s", s.Now())
	}
}

func TestTimerResetReusesEvent(t *testing.T) {
	s := NewScheduler()
	fired := 0
	tm := s.NewTimer(func() { fired++ })
	tm.Reset(time.Second)
	s.Run()
	// Re-arm after expiry, after Stop, and while pending: always the
	// same struct, never an allocation.
	tm.Reset(time.Second)
	tm.Stop()
	tm.Reset(time.Second)
	tm.Reset(2 * time.Second)
	if s.queue.b[tm.ev.bucket][tm.ev.pos].ev != &tm.ev {
		t.Error("the timer's heap slot does not point at its own event")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		tm.Reset(time.Second)
	})
	if allocs != 0 {
		t.Errorf("Timer.Reset allocates %.1f/op", allocs)
	}
	tm.Stop()
	s.Run()
	if fired != 1 {
		t.Errorf("fired = %d, want 1", fired)
	}
}

func TestTimerResetWhilePendingKeepsOrder(t *testing.T) {
	// A re-armed pending timer fires at its new time, ordered by its new
	// sequence number among same-instant events.
	s := NewScheduler()
	var got []string
	tm := s.NewTimer(func() { got = append(got, "timer") })
	tm.Reset(3 * time.Second)
	s.After(time.Second, func() {
		tm.Reset(time.Second) // move expiry earlier, to t=2s
		s.After(time.Second, func() { got = append(got, "after") })
	})
	s.Run()
	if len(got) != 2 || got[0] != "timer" || got[1] != "after" {
		t.Fatalf("fire order %v, want [timer after]", got)
	}
	if s.Now() != Time(2*time.Second) {
		t.Errorf("clock = %v, want 2s", s.Now())
	}
}

func TestEvery(t *testing.T) {
	// The recurrence fires at d, 2d, 3d, ... and stops the first time fn
	// returns false, leaving the queue drainable.
	s := NewScheduler()
	var at []Time
	s.Every(time.Second, func() bool {
		at = append(at, s.Now())
		return len(at) < 3
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{Time(time.Second), Time(2 * time.Second), Time(3 * time.Second)}
	if len(at) != len(want) {
		t.Fatalf("fired %d times, want %d", len(at), len(want))
	}
	for i := range want {
		if at[i] != want[i] {
			t.Errorf("firing %d at %v, want %v", i, at[i], want[i])
		}
	}
	if s.Pending() != 0 {
		t.Errorf("queue not drained: %d pending", s.Pending())
	}
}

func TestEveryDoesNotAllocatePerFiring(t *testing.T) {
	// One Event struct serves the whole series: re-arming is free.
	s := NewScheduler()
	n := 0
	s.Every(time.Millisecond, func() bool {
		n++
		return n < 1000
	})
	allocs := testing.AllocsPerRun(1, func() {
		for s.Step() {
		}
	})
	if allocs != 0 {
		t.Errorf("Every allocates %.1f/op across firings", allocs)
	}
}

func TestEveryPanicsOnNonPositivePeriod(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Every(0) did not panic")
		}
	}()
	NewScheduler().Every(0, func() bool { return false })
}

// TestTimerWhen: When reads the armed deadline, follows a re-arm while
// pending (the heap slot moves), and is false once stopped or fired.
func TestTimerWhen(t *testing.T) {
	s := NewScheduler()
	tm := s.NewTimer(func() {})
	if _, ok := tm.When(); ok {
		t.Fatal("new timer reports a deadline")
	}
	s.After(time.Second, func() {}) // a neighbour in the heap
	tm.Reset(3 * time.Second)
	tm.Reset(500 * time.Millisecond)
	if at, ok := tm.When(); !ok || at != Time(500*time.Millisecond) {
		t.Fatalf("When = %v, %v; want 500ms, true", at, ok)
	}
	s.Run()
	if _, ok := tm.When(); ok {
		t.Fatal("fired timer reports a deadline")
	}
	tm.Reset(time.Second)
	tm.Stop()
	if _, ok := tm.When(); ok {
		t.Fatal("stopped timer reports a deadline")
	}
}

// TestRTT holds the estimator to RFC 6298 §2 in integer nanoseconds:
// the first sample sets SRTT = R and RTTVAR = R/2, later ones fold in
// with gains 1/8 and 1/4, RTO = SRTT + 4·RTTVAR is clamped to [lo, hi],
// Backoff doubles it up to hi, and Derive undoes a backoff.
func TestRTT(t *testing.T) {
	const lo, hi = 2 * time.Millisecond, time.Second
	var e RTT
	e.Sample(10*time.Millisecond, lo, hi)
	if e.SRTT != 10*time.Millisecond || e.RTTVar != 5*time.Millisecond || e.RTO != 30*time.Millisecond {
		t.Fatalf("after the first sample: %+v", e)
	}
	e.Sample(2*time.Millisecond, lo, hi)
	// RTTVAR = (3·5 + |10−2|)/4 = 5.75 ms; SRTT = (7·10 + 2)/8 = 9 ms.
	if e.SRTT != 9*time.Millisecond || e.RTTVar != 5750*time.Microsecond || e.RTO != 32*time.Millisecond {
		t.Fatalf("after the second sample: %+v", e)
	}
	for i := 0; i < 10; i++ {
		e.Backoff(hi)
	}
	if e.RTO != hi {
		t.Fatalf("backed-off RTO %v, want capped at %v", e.RTO, hi)
	}
	e.Derive(lo, hi)
	if e.RTO != 32*time.Millisecond {
		t.Fatalf("Derive left RTO at %v, want 32ms", e.RTO)
	}
	var tiny RTT
	tiny.Sample(100*time.Microsecond, lo, hi)
	if tiny.RTO != lo {
		t.Fatalf("RTO %v below the floor %v", tiny.RTO, lo)
	}
}
