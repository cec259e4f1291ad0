// Package sim provides a deterministic discrete-event simulation kernel:
// a virtual clock, an event scheduler, and a seeded random source.
//
// Everything on the network side of this repository (links, transports,
// applications) is written as callback state machines driven by a
// Scheduler, in the style of classic network simulators. This keeps
// experiments fast (no wall-clock sleeps) and reproducible (a seed fully
// determines the run).
//
// A one-shot event (At, After, AtCall, AfterCall) is fire-and-forget:
// it returns no handle and cannot be cancelled. What must be stopped or
// re-armed is a Timer.
package sim

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"time"
)

// Time is a point in virtual time, expressed as nanoseconds since the
// start of the simulation.
type Time int64

// Duration re-exports time.Duration so callers can write sim-agnostic
// arithmetic (propagation delays, timeouts) with familiar units.
type Duration = time.Duration

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// String formats the virtual time like a duration, e.g. "1.5s".
func (t Time) String() string { return Duration(t).String() }

// event is a scheduled callback: a Timer's, which Stop cancels, or a
// one-shot one from the scheduler's freelist. Its firing time and
// sequence number live in the queue slot, not here (see eventQueue).
type event struct {
	call   func(any) // called with arg; a func() rides in arg behind runFunc
	arg    any
	pos    int32 // index of its slot in the queue's b[bucket]; -1 while not queued
	bucket uint8
	cancel bool // a stopped Timer's; its slot may still be queued
	pooled bool // recycled into the scheduler's freelist after firing
}

// slot is one queue entry. The (at, seq) key is stored inline so a
// bucket is scanned without dereferencing its events: on a queue of
// tens of thousands of entries every such dereference is a cache miss.
type slot struct {
	at  Time
	seq uint64 // tie-break so equal-time events fire in schedule order
	ev  *event
}

// eventQueue is a monotone radix heap of slots ordered by (at, seq).
// No slot fires before the base last, which moves only when pop takes
// a slot. b[0] holds the slots at last, in seq order from head; b[k]
// holds those whose at first differs from last in bit k-1, so each
// slot of b[k] fires before every slot of a higher bucket. Times are
// never negative, so bit 63 never differs, and mask has bit k set
// while b[k] is not empty. When b[0] runs dry, pop moves last to the
// earliest slot of the lowest bucket and spreads that bucket over the
// ones below it: a slot only ever moves down, so it moves at most as
// many times as its time has bits. Each event records its (bucket,
// pos), which is what lets Timer.Reset re-key a pending timer in place.
type eventQueue struct {
	b    [64][]slot
	mask uint64
	head int
	n    int // slots queued, stopped timers' included
	last Time
}

// put appends x to bucket k. A full bucket trades its array for the
// largest idle one that is larger, so room moves to where the slots
// are: the bucket that a crossing of a high power of two fills is new
// each time. Failing that it allocates at least a quarter of the queue,
// which makes the queue's arrays stop growing once it is warm.
func (q *eventQueue) put(k int, x slot) {
	if b := q.b[k]; len(b) == cap(b) {
		j := k
		for idle := ^q.mask; idle != 0; idle &= idle - 1 {
			if i := bits.TrailingZeros64(idle); cap(q.b[i]) > cap(q.b[j]) {
				j = i
			}
		}
		if j == k {
			q.b[k] = append(make([]slot, 0, max(2*len(b), q.n/4)), b...)
		} else {
			q.b[k], q.b[j] = append(q.b[j], b...), b[:0]
			clear(b)
		}
	}
	x.ev.bucket, x.ev.pos = uint8(k), int32(len(q.b[k]))
	q.b[k] = append(q.b[k], x)
	q.mask |= 1 << k
}

// peek returns the earliest slot without moving last; the queue must
// not be empty.
func (q *eventQueue) peek() *slot {
	if q.mask&1 != 0 {
		return &q.b[0][q.head]
	}
	b := q.b[bits.TrailingZeros64(q.mask)]
	m := &b[0]
	for i := 1; i < len(b); i++ {
		if x := &b[i]; x.at < m.at || x.at == m.at && x.seq < m.seq {
			m = x
		}
	}
	return m
}

// pop removes and returns the earliest slot, moving last to its time;
// the queue must not be empty.
func (q *eventQueue) pop() slot {
	if q.mask&1 == 0 {
		k := bits.TrailingZeros64(q.mask)
		b, m := q.b[k], q.peek().at
		q.last, q.b[k] = m, b[:0]
		for _, x := range b {
			q.put(bits.Len64(uint64(x.at^m)), x) // always below k
		}
		q.mask &^= 1 << k // only now, so put cannot lend b out meanwhile
		clear(b)
		if b0 := q.b[0]; len(b0) > 1 {
			slices.SortFunc(b0, func(x, y slot) int { return cmp.Compare(x.seq, y.seq) })
			for i := range b0 {
				b0[i].ev.pos = int32(i)
			}
		}
	}
	x := q.b[0][q.head]
	q.remove(x.ev)
	return x
}

// remove takes e's slot out of the queue without moving last.
func (q *eventQueue) remove(e *event) {
	k, i := int(e.bucket), int(e.pos)
	q.n--
	b := q.b[k]
	n := len(b) - 1
	switch {
	case k > 0:
		b[i] = b[n]
		b[i].ev.pos = int32(i)
	case i == q.head && i < n:
		b[i] = slot{}
		q.head++
		e.pos = -1
		return
	default: // later slots close the gap, keeping b[0] in seq order
		copy(b[i:], b[i+1:])
		for j := i; j < n; j++ {
			b[j].ev.pos = int32(j)
		}
	}
	b[n] = slot{}
	q.b[k] = b[:n]
	if k == 0 && n == q.head {
		q.b[0], q.head = b[:0], 0
	}
	if len(q.b[k]) == 0 {
		q.mask &^= 1 << k
	}
	e.pos = -1
}

// Scheduler is a single-threaded discrete-event scheduler. It is not safe
// for concurrent use; the intended model is that all simulation work runs
// inside event callbacks on one goroutine.
type Scheduler struct {
	now   Time
	queue eventQueue
	seq   uint64
	fired uint64
	free  []*event // fired one-shot events awaiting reuse
}

// NewScheduler returns a scheduler with the clock at zero.
func NewScheduler() *Scheduler { return &Scheduler{} }

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Pending returns the number of events waiting to fire (including
// stopped timers whose slots have not yet been discarded).
func (s *Scheduler) Pending() int { return s.queue.n }

// Fired returns the total number of callbacks executed so far.
func (s *Scheduler) Fired() uint64 { return s.fired }

// NextAt returns the timestamp of the earliest pending event and
// whether one exists. Stopped timers at the head of the queue are
// discarded on the way, so a false/ok answer means the queue is truly
// idle. Real-time drivers (internal/udplink) use this to sleep exactly
// until the virtual schedule needs the CPU again.
func (s *Scheduler) NextAt() (Time, bool) {
	for s.queue.n > 0 {
		x := s.queue.peek()
		if !x.ev.cancel {
			return x.at, true
		}
		s.queue.remove(x.ev)
	}
	return 0, false
}

// At schedules fn to run at absolute virtual time t: AtCall with fn as
// its argument, so a func built once schedules without allocating.
// Scheduling in the past (t < Now) panics: it is always a logic error
// in a simulation.
func (s *Scheduler) At(t Time, fn func()) { s.AtCall(t, runFunc, fn) }

// schedule queues e at t under the next sequence number. A queued e
// keeps its slot, re-keyed in place, when t leaves it in the same
// bucket, and moves to t's bucket otherwise.
func (s *Scheduler) schedule(t Time, e *event) {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	q := &s.queue
	if k := bits.Len64(uint64(t ^ q.last)); e.pos >= 0 && k > 0 && k == int(e.bucket) {
		x := &q.b[k][e.pos]
		x.at, x.seq = t, s.seq
	} else {
		if e.pos >= 0 {
			q.remove(e)
		}
		q.n++
		q.put(k, slot{at: t, seq: s.seq, ev: e})
	}
	s.seq++
}

// After schedules fn to run d from now. Negative d is treated as zero.
func (s *Scheduler) After(d Duration, fn func()) { s.At(s.due(d), fn) }

// due returns the instant d from now: negative d counts as zero, and an
// instant past the end of virtual time is held at its last one.
func (s *Scheduler) due(d Duration) Time {
	if d > Duration(math.MaxInt64-s.now) {
		return math.MaxInt64
	}
	return s.now.Add(max(d, 0))
}

// AtCall schedules fn(arg) at absolute virtual time t on a pooled,
// fire-and-forget event, recycled after firing, so the steady-state
// datapath schedules without allocating. With fn a static function and
// its state in arg, nothing is built per call either.
func (s *Scheduler) AtCall(t Time, fn func(any), arg any) {
	var e *event
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		e = &event{pos: -1, pooled: true}
	}
	e.call, e.arg = fn, arg
	s.schedule(t, e)
}

// AfterCall is AtCall at Now+d. Negative d is treated as zero.
func (s *Scheduler) AfterCall(d Duration, fn func(any), arg any) { s.AtCall(s.due(d), fn, arg) }

// Run executes events in timestamp order until the queue drains. Its
// error is always nil.
func (s *Scheduler) Run() error {
	for s.queue.n > 0 {
		s.step()
	}
	return nil
}

// RunUntil executes events with timestamps <= deadline, then advances the
// clock to exactly deadline. Events after the deadline remain queued. Its
// error is always nil.
func (s *Scheduler) RunUntil(deadline Time) error {
	for s.queue.n > 0 && s.queue.peek().at <= deadline {
		s.step()
	}
	if s.now < deadline {
		s.now = deadline
	}
	return nil
}

// RunFor is RunUntil(Now+d).
func (s *Scheduler) RunFor(d Duration) error { return s.RunUntil(s.now.Add(d)) }

// Step runs the single earliest pending event, advancing the clock to its
// timestamp. It reports whether an event ran.
func (s *Scheduler) Step() bool {
	for s.queue.n > 0 {
		if s.step() {
			return true
		}
	}
	return false
}

// step pops the earliest slot and runs it unless it is a stopped
// timer's, reporting whether it ran.
func (s *Scheduler) step() bool {
	top := s.queue.pop()
	e := top.ev
	if e.cancel {
		if s.queue.n == 0 {
			// The base may not stay ahead of the clock: the next push
			// can be for any instant from now on.
			s.queue.last = s.now
		}
		return false
	}
	s.now = top.at
	s.fired++
	fn, arg := e.call, e.arg
	if e.pooled {
		// Recycle before invoking so the callback itself can schedule
		// into the freed struct.
		e.call, e.arg = nil, nil
		s.free = append(s.free, e)
	}
	fn(arg)
	return true
}

// runFunc is the call form of an event scheduled as a func().
func runFunc(fn any) { fn.(func())() }

// Every schedules fn to run every d of virtual time, first firing at
// Now+d. fn reports whether the series should continue: returning
// false stops the recurrence and releases its event. Non-positive d
// panics — a zero-period recurring event would freeze virtual time.
//
// The recurrence owns one Timer for its whole life, re-armed at
// each firing, so a long-running periodic task — a telemetry
// sampling tick, say — costs no allocation per firing. Because fn
// decides continuation each firing, callers must bound the series
// (by horizon, by Pending(), or both) or it will keep the queue
// non-empty forever and starve drain loops that run until idle.
func (s *Scheduler) Every(d Duration, fn func() bool) {
	if d <= 0 {
		panic(fmt.Sprintf("sim: Every with non-positive period %v", d))
	}
	var t *Timer
	t = s.NewTimer(func() {
		if fn() {
			t.Reset(d)
		}
	})
	t.Reset(d)
}

// Timer is a restartable one-shot timer bound to a scheduler, in the
// mould of time.Timer but on virtual time, and the only event that can
// be stopped or re-armed. The zero value is unusable; create timers
// with NewTimer or InitTimer. A timer holds its event by value for its
// whole life (its queue slot points into the Timer), so re-arming one
// costs no allocation.
type Timer struct {
	s  *Scheduler
	ev event
}

// NewTimer returns a stopped timer that will invoke fn when it expires.
func (s *Scheduler) NewTimer(fn func()) *Timer {
	t := new(Timer)
	s.InitTimer(t, runFunc, fn)
	return t
}

// InitTimer makes *t, which must not be armed, a stopped timer that
// will call fn(arg) when it expires: NewTimer's call form, as AtCall is
// At's. With fn a static function and t inside arg's state, a timer
// costs no allocation of its own.
func (s *Scheduler) InitTimer(t *Timer, fn func(any), arg any) {
	*t = Timer{s: s, ev: event{call: fn, arg: arg, pos: -1, cancel: true}}
}

// Reset (re)arms the timer to fire d from now, cancelling any pending
// expiry. Negative d is treated as zero. The timer's event keeps its
// queue slot when still pending and is re-pushed otherwise; either way
// it takes a fresh sequence number, so ties with events scheduled at
// the same instant resolve in (re)schedule order, as with After.
func (t *Timer) Reset(d Duration) {
	t.ev.cancel = false
	t.s.schedule(t.s.due(d), &t.ev)
}

// Stop disarms the timer. Stopping a stopped timer is a no-op.
func (t *Timer) Stop() { t.ev.cancel = true }

// Active reports whether the timer is armed.
func (t *Timer) Active() bool { return !t.ev.cancel && t.ev.pos >= 0 }

// When returns the instant the timer fires, and false when it is
// stopped.
func (t *Timer) When() (Time, bool) {
	if !t.Active() {
		return 0, false
	}
	return t.s.queue.b[t.ev.bucket][t.ev.pos].at, true
}

// RTT is the RFC 6298 round-trip estimator (Jacobson's algorithm, with
// Karn's rule left to the caller): the smoothed round trip, its mean
// deviation, and the timeout derived from the two, SRTT + 4·RTTVar.
// The zero value has no sample; SRTT stays zero until one arrives.
type RTT struct {
	SRTT, RTTVar, RTO Duration
}

// Sample folds one measured round trip into SRTT and RTTVar and derives
// RTO within [lo, hi].
func (e *RTT) Sample(rtt, lo, hi Duration) {
	if e.SRTT == 0 {
		e.SRTT, e.RTTVar = rtt, rtt/2
	} else {
		d := e.SRTT - rtt
		if d < 0 {
			d = -d
		}
		e.RTTVar = (3*e.RTTVar + d) / 4
		e.SRTT = (7*e.SRTT + rtt) / 8
	}
	e.Derive(lo, hi)
}

// Derive sets RTO to SRTT + 4·RTTVar clamped to [lo, hi], collapsing any
// backoff.
func (e *RTT) Derive(lo, hi Duration) { e.RTO = min(max(e.SRTT+4*e.RTTVar, lo), hi) }

// Backoff doubles RTO, capped at hi: the timeout it set went unanswered.
func (e *RTT) Backoff(hi Duration) { e.RTO = min(2*e.RTO, hi) }
