// Package sim provides a deterministic discrete-event simulation kernel:
// a virtual clock, an event scheduler, and a seeded random source.
//
// Everything on the network side of this repository (links, transports,
// applications) is written as callback state machines driven by a
// Scheduler, in the style of classic network simulators. This keeps
// experiments fast (no wall-clock sleeps) and reproducible (a seed fully
// determines the run).
package sim

import (
	"fmt"
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

// Event is a scheduled callback. It is returned by the scheduling methods
// so the caller can cancel it before it fires. Its firing time and
// sequence number live in the queue slot, not here (see eventQueue).
type Event struct {
	call   func(any) // called with arg; a func() rides in arg behind runFunc
	arg    any
	index  int // queue slot; -1 once fired or cancelled
	cancel bool
	pooled bool // recycled into the scheduler's freelist after firing
}

// Cancel prevents the event from firing. Cancelling an event that already
// fired (or was already cancelled) is a no-op.
func (e *Event) Cancel() {
	if e != nil {
		e.cancel = true
	}
}

// Scheduled reports whether the event is still pending.
func (e *Event) Scheduled() bool { return e != nil && !e.cancel && e.index >= 0 }

// slot is one queue entry. The (at, seq) key is stored inline so the
// sift loops compare slots without dereferencing the Event: on a queue
// of tens of thousands of entries every such dereference is a cache
// miss, and comparisons outnumber moves about four to one.
type slot struct {
	at  Time
	seq uint64 // tie-break so equal-time events fire in schedule order
	ev  *Event
}

func (a *slot) before(b *slot) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// eventQueue is a 4-ary min-heap of slots ordered by (at, seq): half
// the depth of a binary heap, and the four children of a slot are
// adjacent in memory. seq is unique per scheduler, so the order is
// total and the pop sequence does not depend on the heap's shape. Every
// move of a slot records its new position in Event.index, which is what
// lets Timer.Reset re-key a pending timer in place.
type eventQueue []slot

// push adds x and restores heap order.
func (q *eventQueue) push(x slot) {
	*q = append(*q, x)
	q.up(len(*q)-1, x)
}

// pop removes and returns the earliest slot; the queue must not be empty.
func (q *eventQueue) pop() slot {
	h := *q
	top := h[0]
	top.ev.index = -1
	n := len(h) - 1
	last := h[n]
	h[n] = slot{}
	*q = h[:n]
	if n > 0 {
		q.down(0, last)
	}
	return top
}

// fix re-keys slot i to (at, seq) and restores heap order.
func (q eventQueue) fix(i int, at Time, seq uint64) {
	x := slot{at: at, seq: seq, ev: q[i].ev}
	if i > 0 && x.before(&q[(i-1)/4]) {
		q.up(i, x)
	} else {
		q.down(i, x)
	}
}

// up places x at or above hole i, moving later parents down into it.
func (q eventQueue) up(i int, x slot) {
	for i > 0 {
		p := (i - 1) / 4
		if !x.before(&q[p]) {
			break
		}
		q[i] = q[p]
		q[i].ev.index = i
		i = p
	}
	q[i] = x
	x.ev.index = i
}

// down places x at or below hole i, moving the earliest child up into
// it while that child fires before x.
func (q eventQueue) down(i int, x slot) {
	n := len(q)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		kids := q[c:min(c+4, n)]
		m := 0
		for j := 1; j < len(kids); j++ {
			if kids[j].before(&kids[m]) {
				m = j
			}
		}
		if !kids[m].before(&x) {
			break
		}
		q[i] = kids[m]
		q[i].ev.index = i
		i = c + m
	}
	q[i] = x
	x.ev.index = i
}

// Scheduler is a single-threaded discrete-event scheduler. It is not safe
// for concurrent use; the intended model is that all simulation work runs
// inside event callbacks on one goroutine.
type Scheduler struct {
	now   Time
	queue eventQueue
	seq   uint64
	fired uint64
	free  []*Event // fired pooled events awaiting reuse
}

// NewScheduler returns a scheduler with the clock at zero.
func NewScheduler() *Scheduler { return &Scheduler{} }

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Pending returns the number of events waiting to fire (including
// cancelled events that have not yet been discarded).
func (s *Scheduler) Pending() int { return len(s.queue) }

// Fired returns the total number of callbacks executed so far.
func (s *Scheduler) Fired() uint64 { return s.fired }

// NextAt returns the timestamp of the earliest pending event and
// whether one exists. Cancelled events at the head of the queue are
// discarded on the way, so a false/ok answer means the queue is truly
// idle. Real-time drivers (internal/udplink) use this to sleep exactly
// until the virtual schedule needs the CPU again.
func (s *Scheduler) NextAt() (Time, bool) {
	for len(s.queue) > 0 {
		if s.queue[0].ev.cancel {
			s.queue.pop()
			continue
		}
		return s.queue[0].at, true
	}
	return 0, false
}

// At schedules fn to run at absolute virtual time t. Scheduling in the
// past (t < Now) panics: it is always a logic error in a simulation.
func (s *Scheduler) At(t Time, fn func()) *Event {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	e := &Event{call: runFunc, arg: fn}
	s.queue.push(slot{at: t, seq: s.seq, ev: e})
	s.seq++
	return e
}

// After schedules fn to run d from now. Negative d is treated as zero.
func (s *Scheduler) After(d Duration, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return s.At(s.now.Add(d), fn)
}

// AtCall schedules fn(arg) at absolute virtual time t on a pooled,
// fire-and-forget event: no handle is returned (the event cannot be
// cancelled) and the Event struct is recycled after firing, so the
// steady-state datapath schedules without allocating. Unlike a closure
// passed to At, fn should be a static function with its state in arg.
func (s *Scheduler) AtCall(t Time, fn func(any), arg any) {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	var e *Event
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		e = &Event{pooled: true}
	}
	e.call, e.arg = fn, arg
	s.queue.push(slot{at: t, seq: s.seq, ev: e})
	s.seq++
}

// AfterCall is AtCall at Now+d. Negative d is treated as zero.
func (s *Scheduler) AfterCall(d Duration, fn func(any), arg any) {
	if d < 0 {
		d = 0
	}
	s.AtCall(s.now.Add(d), fn, arg)
}

// Run executes events in timestamp order until the queue drains. Its
// error is always nil.
func (s *Scheduler) Run() error {
	for len(s.queue) > 0 {
		s.step()
	}
	return nil
}

// RunUntil executes events with timestamps <= deadline, then advances the
// clock to exactly deadline. Events after the deadline remain queued. Its
// error is always nil.
func (s *Scheduler) RunUntil(deadline Time) error {
	for len(s.queue) > 0 && s.queue[0].at <= deadline {
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
	for len(s.queue) > 0 {
		if s.queue[0].ev.cancel {
			s.queue.pop()
			continue
		}
		s.step()
		return true
	}
	return false
}

func (s *Scheduler) step() {
	top := s.queue.pop()
	e := top.ev
	if e.cancel {
		return
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
}

// runFunc is the call form of an event scheduled as a func().
func runFunc(fn any) { fn.(func())() }

// Every schedules fn to run every d of virtual time, first firing at
// Now+d. fn reports whether the series should continue: returning
// false stops the recurrence and releases its event. Non-positive d
// panics — a zero-period recurring event would freeze virtual time.
//
// The recurrence owns one Event struct for its whole life (re-armed
// like a Timer), so a long-running periodic task — a telemetry
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
// mould of time.Timer but on virtual time. The zero value is unusable;
// create timers with NewTimer or InitTimer. A timer holds its Event by
// value for its whole life (its heap slot points into the Timer), so
// re-arming one costs no allocation.
type Timer struct {
	s  *Scheduler
	ev Event
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
	*t = Timer{s: s, ev: Event{call: fn, arg: arg, index: -1, cancel: true}}
}

// Reset (re)arms the timer to fire d from now, cancelling any pending
// expiry. Negative d is treated as zero. The timer's event keeps its
// heap slot when still pending and is re-pushed otherwise; either way
// it takes a fresh sequence number, so ties with events scheduled at
// the same instant resolve in (re)schedule order, as with After.
func (t *Timer) Reset(d Duration) {
	if d < 0 {
		d = 0
	}
	s, e := t.s, &t.ev
	e.cancel = false
	at := s.now.Add(d)
	if e.index >= 0 {
		s.queue.fix(e.index, at, s.seq)
	} else {
		s.queue.push(slot{at: at, seq: s.seq, ev: e})
	}
	s.seq++
}

// Stop disarms the timer. Stopping a stopped timer is a no-op.
func (t *Timer) Stop() { t.ev.Cancel() }

// Active reports whether the timer is armed.
func (t *Timer) Active() bool { return t.ev.Scheduled() }

// When returns the instant the timer fires, and false when it is
// stopped.
func (t *Timer) When() (Time, bool) {
	if !t.Active() {
		return 0, false
	}
	return t.s.queue[t.ev.index].at, true
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
