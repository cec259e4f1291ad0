package sim

import (
	"math/rand"
	"slices"
	"testing"
)

// The differential test: one op stream drives a Scheduler and an
// obviously-correct model (a slice kept sorted by (at, seq)) in
// lockstep, comparing every observable after every op. The stream is
// bytes so the fuzzer can mutate it.

// backend is the scheduler surface the op stream exercises; timers are
// addressed by creation index so both sides agree. One-shot events have
// no handle: only a timer can be stopped.
type backend interface {
	Now() Time
	Fired() uint64
	Pending() int
	NextAt() (Time, bool)
	Step() bool
	RunUntil(Time) error
	Run() error

	at(t Time, fn func())
	after(d Duration, fn func())
	atCall(t Time, fn func(any), arg any)
	afterCall(d Duration, fn func(any), arg any)
	newTimer(fn func())
	reset(k int, d Duration)
	stop(k int)
	active(k int) bool
}

// real adapts *Scheduler.
type real struct {
	*Scheduler
	timers []*Timer
}

func (r *real) at(t Time, fn func())                      { r.At(t, fn) }
func (r *real) after(d Duration, fn func())               { r.After(d, fn) }
func (r *real) atCall(t Time, fn func(any), a any)        { r.AtCall(t, fn, a) }
func (r *real) afterCall(d Duration, fn func(any), a any) { r.AfterCall(d, fn, a) }
func (r *real) newTimer(fn func())                        { r.timers = append(r.timers, r.NewTimer(fn)) }
func (r *real) reset(k int, d Duration)                   { r.timers[k].Reset(d) }
func (r *real) stop(k int)                                { r.timers[k].Stop() }
func (r *real) active(k int) bool                         { return r.timers[k].Active() }

// mItem is one model event.
type mItem struct {
	at     Time
	seq    uint64
	fn     func()
	cancel bool
	queued bool
	timer  int // index into model.timers, -1 for one-shot events
}

// model restates the Scheduler contract over a sorted slice: stopped
// timers stay queued (and counted by Pending) until they reach the head.
type model struct {
	now    Time
	seq    uint64
	fired  uint64
	q      []*mItem
	timers []*mItem
}

func (m *model) Now() Time     { return m.now }
func (m *model) Fired() uint64 { return m.fired }
func (m *model) Pending() int  { return len(m.q) }

func (m *model) insert(it *mItem, at Time) {
	it.at, it.seq, it.queued = at, m.seq, true
	m.seq++
	i, _ := slices.BinarySearchFunc(m.q, it, func(a, b *mItem) int {
		if a.at != b.at {
			if a.at < b.at {
				return -1
			}
			return 1
		}
		if a.seq < b.seq {
			return -1
		}
		return 1 // seq is unique: never equal to a queued item's
	})
	m.q = slices.Insert(m.q, i, it)
}

func (m *model) pop() *mItem {
	it := m.q[0]
	m.q = m.q[1:]
	it.queued = false
	return it
}

func (m *model) dropCancelledHead() {
	for len(m.q) > 0 && m.q[0].cancel {
		m.pop()
	}
}

func (m *model) NextAt() (Time, bool) {
	m.dropCancelledHead()
	if len(m.q) == 0 {
		return 0, false
	}
	return m.q[0].at, true
}

func (m *model) step() {
	it := m.pop()
	if it.cancel {
		return
	}
	m.now = it.at
	m.fired++
	it.fn()
}

func (m *model) Step() bool {
	m.dropCancelledHead()
	if len(m.q) == 0 {
		return false
	}
	m.step()
	return true
}

func (m *model) RunUntil(deadline Time) error {
	for len(m.q) > 0 && m.q[0].at <= deadline {
		m.step()
	}
	if m.now < deadline {
		m.now = deadline
	}
	return nil
}

func (m *model) Run() error {
	for len(m.q) > 0 {
		m.step()
	}
	return nil
}

func (m *model) at(t Time, fn func())        { m.insert(&mItem{fn: fn, timer: -1}, t) }
func (m *model) after(d Duration, fn func()) { m.at(m.now.Add(max(d, 0)), fn) }

func (m *model) atCall(t Time, fn func(any), arg any) { m.at(t, func() { fn(arg) }) }

func (m *model) afterCall(d Duration, fn func(any), arg any) {
	m.atCall(m.now.Add(max(d, 0)), fn, arg)
}

func (m *model) newTimer(fn func()) {
	m.timers = append(m.timers, &mItem{fn: fn, cancel: true, timer: len(m.timers)})
}

func (m *model) reset(k int, d Duration) {
	it := m.timers[k]
	if it.queued {
		i := slices.Index(m.q, it)
		m.q = slices.Delete(m.q, i, i+1)
	}
	it.cancel = false
	m.insert(it, m.now.Add(max(d, 0)))
}

func (m *model) stop(k int)        { m.timers[k].cancel = true }
func (m *model) active(k int) bool { return !m.timers[k].cancel && m.timers[k].queued }

// firing is one log entry: which item ran and the clock it saw.
type firing struct {
	id  int
	now Time
}

const orderTimers = 4

// side is one scheduler under the op stream, with its firing log. Item
// ids are allocated per side; the two sides allocate identically for
// as long as they fire identically.
type side struct {
	b      backend
	span   int // delays are 0..span-1 steps of 10 ns, some scaled (see tick)
	log    []firing
	nextID int
}

func newSide(b backend, span int) *side {
	s := &side{b: b, span: span}
	for k := 0; k < orderTimers; k++ {
		k := k
		// Timer k's expiry re-arms timer k+1 on odd firings, so a timer
		// callback exercises Reset from inside step too.
		n := 0
		b.newTimer(func() {
			s.log = append(s.log, firing{-1 - k, s.b.Now()})
			if n++; n%2 == 1 {
				s.b.reset((k+1)%orderTimers, s.tick(n))
			}
		})
	}
	return s
}

// tick maps a byte-sized parameter to a delay. Three in four land on a
// coarse grid, where with a small span equal-time ties are the common
// case rather than the rare one; the rest are scaled by up to 2^41, so
// delays run from nanoseconds to hours and reach every bucket the
// queue uses.
func (s *side) tick(p int) Duration {
	d := Duration(p%s.span) * 10
	if p%4 == 3 {
		d <<= p / 4 % 42
	}
	return d
}

// callback builds the body of item id: log the firing, then run the
// nested action act encodes (act/6 seeds the action of any item it
// schedules, so nesting terminates).
func (s *side) callback(id, act int) func() {
	return func() {
		s.log = append(s.log, firing{id, s.b.Now()})
		s.do(act%6, act/6)
	}
}

func callArg(arg any) { arg.(func())() }

// do applies one scheduling action; it is what both the top-level op
// stream and the callbacks run.
func (s *side) do(kind, p int) {
	b := s.b
	switch kind {
	case 1:
		id := s.nextID
		s.nextID++
		b.after(s.tick(p), s.callback(id, p))
	case 2:
		id := s.nextID
		s.nextID++
		b.atCall(b.Now().Add(s.tick(p)), callArg, s.callback(id, p))
	case 3:
		b.reset(p%orderTimers, s.tick(p/orderTimers))
	case 4:
		b.stop(p % orderTimers)
	case 5:
		id := s.nextID
		s.nextID++
		b.afterCall(s.tick(p), callArg, s.callback(id, p))
	}
}

// runOrderOps interprets data against both sides.
func runOrderOps(t *testing.T, data []byte, span int) {
	t.Helper()
	r := newSide(&real{Scheduler: NewScheduler()}, span)
	mod := &model{}
	m := newSide(mod, span)
	checked := 0 // log prefix already compared

	check := func(op int, what string) {
		t.Helper()
		rb, mb := r.b, m.b
		if rb.Now() != mb.Now() || rb.Fired() != mb.Fired() || rb.Pending() != mb.Pending() {
			t.Fatalf("op %d (%s): now/fired/pending = %v/%d/%d, model %v/%d/%d",
				op, what, rb.Now(), rb.Fired(), rb.Pending(), mb.Now(), mb.Fired(), mb.Pending())
		}
		if !slices.Equal(r.log[checked:], m.log[checked:]) {
			t.Fatalf("op %d (%s): firing order diverged after %d firings:\n got %v\nwant %v",
				op, what, checked, r.log[checked:], m.log[checked:])
		}
		checked = len(r.log)
		for k := 0; k < orderTimers; k++ {
			if rb.active(k) != mb.active(k) {
				t.Fatalf("op %d (%s): timer %d Active = %v, model %v", op, what, k, rb.active(k), mb.active(k))
			}
		}
	}

	for i := 0; i+1 < len(data); i += 2 {
		op, p := int(data[i]%12), int(data[i+1])
		what := ""
		switch op {
		case 0:
			what = "At"
			for _, s := range []*side{r, m} {
				id := s.nextID
				s.nextID++
				s.b.at(s.b.Now().Add(s.tick(p)), s.callback(id, p))
			}
		case 1, 2, 3, 4, 5:
			what = [...]string{1: "After", 2: "AtCall", 3: "Timer.Reset", 4: "Timer.Stop", 5: "AfterCall"}[op]
			r.do(op, p)
			m.do(op, p)
		case 6:
			what = "NextAt"
			ra, rok := r.b.NextAt()
			ma, mok := m.b.NextAt()
			if ra != ma || rok != mok {
				t.Fatalf("op %d: NextAt = %v,%v, model %v,%v", i/2, ra, rok, ma, mok)
			}
		case 7:
			what = "Step"
			if rs, ms := r.b.Step(), m.b.Step(); rs != ms {
				t.Fatalf("op %d: Step = %v, model %v", i/2, rs, ms)
			}
		case 8:
			what = "RunUntil"
			_ = r.b.RunUntil(r.b.Now().Add(r.tick(p)))
			_ = m.b.RunUntil(m.b.Now().Add(m.tick(p)))
		case 9:
			// Stop the head of the queue if it is a timer's.
			what = "stop head"
			if len(mod.q) > 0 && mod.q[0].timer >= 0 {
				r.b.stop(mod.q[0].timer)
				m.b.stop(mod.q[0].timer)
			}
		case 10:
			// Re-arm a stopped timer whose slot may still be queued.
			what = "Stop+Reset"
			for _, s := range []*side{r, m} {
				s.b.stop(p % orderTimers)
				s.b.reset(p%orderTimers, s.tick(p/orderTimers))
			}
		case 11:
			what = "Run"
			_ = r.b.Run()
			_ = m.b.Run()
		}
		check(i/2, what)
	}
	_ = r.b.Run()
	_ = m.b.Run()
	check(len(data)/2, "Run")
	if r.b.Pending() != 0 {
		t.Fatalf("Pending = %d after Run", r.b.Pending())
	}
}

// orderCorners are op streams that reach the corners of the radix queue,
// run ahead of the random ones and seeded into the fuzzer. Op 3 with
// parameter 16 arms timer 0 at 40 ns.
var orderCorners = [][]byte{
	// Run ends on a stopped timer's tail at 40 ns, then 50 ns and 10 ns
	// are scheduled: unless the base went back to now, 10 ns would sort
	// into a higher bucket than 50 ns and fire after it.
	{3, 16, 9, 0, 11, 0, 0, 5, 0, 1, 7, 0},
	// NextAt discards a stopped timer's head at 40 ns, then 10 ns is
	// scheduled ahead of the 50 ns event left.
	{3, 16, 0, 5, 9, 0, 6, 0, 0, 1, 7, 0, 7, 0},
	// Events A and B, timer 1, and events C and D all at 30 ns reach
	// b[0] together; A's callback re-arms the timer while its slot sits
	// between B and C, and C and D must shift down into the gap: moving
	// D into it would fire D before C.
	{0, 9, 0, 9, 3, 13, 0, 9, 0, 9, 7, 0, 7, 0, 7, 0, 7, 0, 3, 13, 7, 0},
}

func TestSchedulerDifferential(t *testing.T) {
	for _, data := range orderCorners {
		runOrderOps(t, data, 6)
	}
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 300; round++ {
		data := make([]byte, 2*(50+rng.Intn(400)))
		rng.Read(data)
		runOrderOps(t, data, 6)
	}
}

// TestSchedulerDifferentialDeep runs streams biased toward scheduling
// far ahead of short runs, so the heap grows to thousands of slots and
// sifts cross many levels.
func TestSchedulerDifferentialDeep(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for round := 0; round < 3; round++ {
		data := make([]byte, 2*20000)
		rng.Read(data)
		for i := 0; i < len(data); i += 2 {
			if data[i]%12 >= 7 && rng.Intn(4) > 0 {
				data[i] = byte(rng.Intn(6)) // trade most run ops for scheduling ops
			}
		}
		runOrderOps(t, data, 256)
	}
}

func FuzzSchedulerOrder(f *testing.F) {
	f.Add([]byte{3, 0, 0, 0, 9, 0, 7, 0})                    // a timer tied with an event: stop the head, step
	f.Add([]byte{3, 1, 4, 1, 3, 2, 8, 5})                    // reset, stop, reset while still queued
	f.Add([]byte{1, 13, 2, 44, 0, 200, 8, 5, 8, 5})          // callbacks that schedule from inside step
	f.Add([]byte{3, 0, 10, 0, 0, 0, 5, 0, 6, 0, 7, 0, 8, 3}) // a timer stopped and re-armed among zero-delay events
	for _, data := range orderCorners {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		runOrderOps(t, data, 6)
	})
}
