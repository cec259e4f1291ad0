package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

// The quartile rule must be the one the acceptance check applies:
// Python's statistics.quantiles(vs, n=4). Expected values are Python's.
func TestMedianAndQuartiles(t *testing.T) {
	cases := []struct {
		vs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{30, 10, 20}, 10, 20, 30},
		{[]float64{4, 8}, 3, 6, 9}, // the rule extrapolates for two values
		{[]float64{7}, 7, 7, 7},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.vs)
		if !near(q1, c.q1) || !near(median(c.vs), c.med) || !near(q3, c.q3) {
			t.Errorf("%v: got q1 %v median %v q3 %v, want %v %v %v", c.vs, q1, median(c.vs), q3, c.q1, c.med, c.q3)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
	if got := iqrFrac([]float64{1, 2, 3, 4, 5}); !near(got, 1) {
		t.Errorf("iqrFrac = %v, want (4.5-1.5)/3", got)
	}
	if iqrFrac([]float64{0, 0, 0}) != 0 || iqrFrac([]float64{3}) != 0 {
		t.Error("iqrFrac must be 0 for a zero median or a single value")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := make([]int64, 100)
	for i := range s {
		s[i] = int64(i + 1)
	}
	for _, c := range []struct {
		p    float64
		want int64
	}{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0, 1}, {99.5, 100}} {
		if got := percentileSorted(s, c.p); got != c.want {
			t.Errorf("p%v of 1..100 = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentileSorted([]int64{7, 9}, 50); got != 7 {
		t.Errorf("p50 of two samples = %d, want the lower (nearest rank)", got)
	}
	if percentileSorted(nil, 50) != 0 {
		t.Error("no samples must give 0")
	}
}

// fakeTracer returns a tracer on a clock the test sets.
func fakeTracer() (*tracer, *int64) {
	clock := new(int64)
	tr := newTracer(time.Now())
	tr.now = func() int64 { return *clock }
	return tr, clock
}

func (tr *tracer) at(clock *int64, t int64, f func()) { *clock = t; f() }

// Children are subtracted from their parent once, grandchildren not at
// all, and the self times add up to the root span.
func TestSpanSelfTimes(t *testing.T) {
	tr, clock := fakeTracer()
	tr.start(0)
	step := func(at int64, f func()) { tr.at(clock, at, f) }
	step(10, func() { tr.begin(spAppSubmit, 1) })
	step(12, func() { tr.begin(spCoreSend, 1) })
	step(13, func() { tr.begin(spLinkEnqueue, 1) })
	step(15, tr.end) // link.enqueue: 2
	step(16, func() { tr.begin(spLinkEnqueue, 1) })
	step(19, tr.end) // link.enqueue: 3
	step(30, tr.end) // core.send: 18 total, 13 self
	step(31, tr.end) // app.submit: 21 total, 3 self
	step(40, func() { tr.begin(spLoopRun, 0) })
	step(90, tr.end) // loop.run: 50, no children
	tr.stop(100)

	want := map[spanID]spanAgg{
		spLinkEnqueue: {Count: 2, Total: 5, Self: 5},
		spCoreSend:    {Count: 1, Total: 18, Self: 13},
		spAppSubmit:   {Count: 1, Total: 21, Self: 3},
		spLoopRun:     {Count: 1, Total: 50, Self: 50},
		spRep:         {Count: 1, Total: 100, Self: 29},
	}
	for id, w := range want {
		if got := tr.agg[id]; got != w {
			t.Errorf("%s: got %+v, want %+v", spanNames[id], got, w)
		}
	}
	if tr.selfSum() != 100 {
		t.Errorf("self times sum to %d, want the root's 100", tr.selfSum())
	}
	// Stored spans carry parents: link.enqueue -> core.send -> app.submit -> rep.
	var chain []string
	for i := int32(3); i >= 0; i = tr.spans[i].Parent {
		chain = append(chain, tr.spans[i].Name)
	}
	if got := len(chain); got != 4 || chain[0] != "link.enqueue" || chain[3] != "rep" {
		t.Errorf("parent chain %v", chain)
	}
}

// Over UDP the next ADU is submitted from inside the delivery callback:
// app.submit nests under app.deliver under core.recv under loop.run,
// and each level keeps only its own time.
func TestSpanNestedSubmitInsideDeliver(t *testing.T) {
	tr, clock := fakeTracer()
	tr.start(0)
	step := func(at int64, f func()) { tr.at(clock, at, f) }
	step(0, func() { tr.begin(spLoopRun, 0) })
	step(5, func() { tr.begin(spCoreRecv, 0) })
	step(9, func() { tr.begin(spAppDeliver, 7) })
	step(10, func() { tr.begin(spAppSubmit, 8) })
	step(11, func() { tr.begin(spCoreSend, 8) })
	step(21, tr.end) // core.send 10
	step(22, tr.end) // app.submit 12, self 2
	step(24, tr.end) // app.deliver 15, self 3
	step(25, tr.end) // core.recv 20, self 5
	step(50, tr.end) // loop.run 50, self 30
	tr.stop(50)
	for id, self := range map[spanID]int64{spCoreSend: 10, spAppSubmit: 2, spAppDeliver: 3, spCoreRecv: 5, spLoopRun: 30, spRep: 0} {
		if got := tr.agg[id].Self; got != self {
			t.Errorf("%s self = %d, want %d", spanNames[id], got, self)
		}
	}
	if tr.selfSum() != 50 {
		t.Errorf("self times sum to %d, want 50", tr.selfSum())
	}
}

// The measured window opens and closes inside a delivery callback, deep
// in the span stack. Spans open at either edge count only for their
// part inside the window, so the sum is still exactly the window.
func TestSpanWindowEdges(t *testing.T) {
	tr, clock := fakeTracer()
	step := func(at int64, f func()) { tr.at(clock, at, f) }
	// Warm-up: tracked, not counted.
	step(0, func() { tr.begin(spLoopRun, 0) })
	step(10, func() { tr.begin(spCoreRecv, 0) })
	step(20, tr.end)
	step(30, func() { tr.begin(spCoreRecv, 0) })
	step(35, func() { tr.begin(spAppDeliver, 0) })
	tr.start(40) // window opens inside app.deliver
	step(44, tr.end)
	step(45, tr.end)
	step(60, func() { tr.begin(spCoreRecv, 0) })
	step(62, func() { tr.begin(spAppDeliver, 0) })
	tr.stop(70) // and closes inside a later one
	step(75, tr.end)
	step(80, tr.end)
	step(99, tr.end) // loop.run returns after the drain
	step(99, tr.end) // an unbalanced end must not underflow

	for id, w := range map[spanID]spanAgg{
		spAppDeliver: {Count: 2, Total: 4 + 8, Self: 12},
		spCoreRecv:   {Count: 2, Total: 5 + 10, Self: 1 + 2},
		spLoopRun:    {Count: 1, Total: 30, Self: 15},
		spRep:        {Count: 1, Total: 30, Self: 0},
	} {
		if got := tr.agg[id]; got != w {
			t.Errorf("%s: got %+v, want %+v", spanNames[id], got, w)
		}
	}
	if tr.selfSum() != 30 {
		t.Errorf("self times sum to %d, want the window's 30", tr.selfSum())
	}
	if len(tr.stack) != 1 {
		t.Errorf("stack depth %d after balanced ends, want the root only", len(tr.stack))
	}
	var nilTracer *tracer
	nilTracer.begin(spRep, 0)
	nilTracer.end()
	nilTracer.start(0)
	nilTracer.stop(0) // the untraced pass: all no-ops
}

func TestLedgerPayloadIsAFunctionOfSeedAndTag(t *testing.T) {
	a, b, other := newLedger(7, 512, 16), newLedger(7, 512, 16), newLedger(8, 512, 16)
	differ := 0
	for tag := uint64(0); tag < 64; tag++ {
		if string(a.payload(tag)) != string(b.payload(tag)) {
			t.Fatalf("tag %d: same seed, different payload", tag)
		}
		if string(a.payload(tag)) != string(other.payload(tag)) {
			differ++
		}
		if tag > 0 && string(a.payload(tag)) != string(a.payload(tag-1)) {
			differ++
		}
	}
	if differ < 120 {
		t.Errorf("only %d of 127 neighbouring payloads differ", differ)
	}
}

// An injected duplicate, corruption and drop are each caught, and each
// counts once.
func TestLedgerCatchesInjectedFaults(t *testing.T) {
	deliver := func(l *ledger, tag uint64, mutate func([]byte)) {
		data := append([]byte(nil), l.payload(tag)...)
		if mutate != nil {
			mutate(data)
		}
		l.deliver(tag, data, 1000)
	}
	fill := func() *ledger {
		l := newLedger(3, 256, 8)
		for i := 0; i < 4; i++ {
			l.submit(int64(10 + i))
		}
		return l
	}

	clean := fill()
	for tag := uint64(0); tag < 4; tag++ {
		deliver(clean, tag, nil)
	}
	if clean.failed() != 0 || clean.delivered != 4 || clean.outstanding() != 0 {
		t.Fatalf("clean run: %v", clean)
	}

	dup := fill()
	for _, tag := range []uint64{0, 1, 1, 2, 3} {
		deliver(dup, tag, nil)
	}
	if dup.duplicate != 1 || dup.failed() != 1 || dup.delivered != 4 {
		t.Errorf("duplicate: %v", dup)
	}

	flip := fill()
	for tag := uint64(0); tag < 4; tag++ {
		mutate := func([]byte) {}
		if tag == 2 {
			mutate = func(b []byte) { b[100] ^= 1 }
		}
		deliver(flip, tag, mutate)
	}
	if flip.corrupt != 1 || flip.failed() != 1 || flip.delivered != 3 || flip.outstanding() != 0 {
		t.Errorf("corruption: %v", flip)
	}

	short := fill()
	short.deliver(0, short.payload(0)[:255], 1000) // truncated
	short.deliver(9, short.payload(1), 1000)       // a tag never submitted
	if short.corrupt != 2 {
		t.Errorf("truncated and unknown: %v", short)
	}

	drop := fill()
	for _, tag := range []uint64{0, 1, 3} {
		deliver(drop, tag, nil)
	}
	if drop.outstanding() != 1 || drop.failed() != 1 {
		t.Errorf("drop, undelivered at drain: %v", drop)
	}
	drop.lose(2) // the receiver gives it up: still exactly one failure
	if drop.lost != 1 || drop.outstanding() != 0 || drop.failed() != 1 {
		t.Errorf("drop, reported lost: %v", drop)
	}
	deliver(drop, 2, nil) // recovered after all
	if drop.failed() != 0 || drop.delivered != 4 {
		t.Errorf("lost then delivered: %v", drop)
	}

	refused := fill()
	refused.submit(20)
	refused.unsubmit()
	if refused.submitted != 4 || len(refused.state) != 4 {
		t.Errorf("unsubmit: %v", refused)
	}
	if lat := clean.state[0]; lat != stateDelivered {
		t.Errorf("delivered tag keeps state %d", lat)
	}
	l := fill()
	if got := l.deliver(1, l.payload(1), 511); got != 500 {
		t.Errorf("latency = %d, want 511-11", got)
	}
}

func TestBestSlices(t *testing.T) {
	const ms = int64(time.Millisecond)
	// Three slices of 300 ADUs taking 20, 5 and 10 ms, then a tail of 10
	// ADUs in 0.1 ms that would win everything if it counted.
	marks := []mark{
		{at: 0, good: 0, lat: 0},
		{at: 20 * ms, good: 300, lat: 300},
		{at: 25 * ms, good: 600, lat: 600},
		{at: 35 * ms, good: 900, lat: 900},
		{at: 35*ms + ms/10, good: 910, lat: 910},
	}
	lat := make([]int64, 910)
	for i := range lat {
		switch {
		case i < 300:
			lat[i] = 9000 - int64(i) // unsorted on purpose
		case i < 600:
			lat[i] = 2000 + int64(i%100)*10
		case i < 900:
			lat[i] = 5000
		default:
			lat[i] = 1
		}
	}
	b := bestSlices(marks, lat)
	if !near(b.rate, 300/0.005) {
		t.Errorf("rate = %v, want the second slice's 60000/s", b.rate)
	}
	if !near(b.p50, 2.49) || !near(b.p90, 2.89) {
		t.Errorf("p50 %v p90 %v us, want the second slice's 2.49 and 2.89", b.p50, b.p90)
	}

	// An unsliced window: the tail is all there is.
	whole := []mark{{at: 0}, {at: 5 * ms, good: 10, lat: 10}}
	b = bestSlices(whole, []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100})
	if !near(b.rate, 2000) || !near(b.p50, 0.05) || !near(b.p90, 0.09) {
		t.Errorf("whole window: %+v", b)
	}
	if got := bestSlices(marks[:1], nil); got != (best{}) {
		t.Errorf("no slice: %+v", got)
	}
}

func TestSummarize(t *testing.T) {
	s := summarize(metricDef{Name: "x", Unit: "u"}, []float64{3, 9, 5, 1, 7}, false)
	if s.Value != 5 || s.Q1 != 2 || s.Q3 != 8 || s.Unit != "u" || len(s.Reps) != 5 {
		t.Errorf("summary %+v, want median 5 and quartiles 2 and 8", s)
	}
	hi := summarize(metricDef{Better: "higher"}, []float64{3, 9, 5}, true)
	lo := summarize(metricDef{Better: "lower"}, []float64{3, 9, 5}, true)
	if hi.Value != 9 || lo.Value != 3 {
		t.Errorf("best of the repetitions: %v and %v, want 9 and 3", hi.Value, lo.Value)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "lat", Better: "lower", Rel: 0.10}
	higher := metricDef{Name: "rate", Better: "higher", Rel: 0.10}
	floor := metricDef{Name: "allocs", Better: "lower", Rel: 0.02, Abs: 0.5}
	zero := metricDef{Name: "failed", Better: "lower"}
	tight := func(c float64) []float64 { return []float64{c - 1, c, c, c, c + 1} }
	wide := func(c float64) []float64 { return []float64{c - 30, c - 20, c, c + 20, c + 30} }
	cases := []struct {
		name string
		def  metricDef
		a, b []float64
		want verdict
	}{
		{"within bound", lower, tight(100), tight(105), same},
		{"slower by more than the bound", lower, tight(100), tight(115), worse},
		{"faster by more than the bound", lower, tight(100), tight(85), better},
		{"higher is better", higher, tight(100), tight(115), better},
		{"lower rate is worse", higher, tight(100), tight(85), worse},
		{"spread wider than the bound", lower, wide(100), wide(104), unresolved},
		{"wide but disjoint and worse", lower, wide(100), wide(200), worse},
		{"wide but disjoint and better", higher, wide(100), wide(200), better},
		{"absolute floor near zero", floor, []float64{0, 0, 0}, []float64{0.4, 0.4, 0.4}, same},
		{"past the absolute floor", floor, []float64{0, 0, 0}, []float64{0.6, 0.6, 0.6}, worse},
		{"any rise of failed_frac", zero, []float64{0, 0, 0}, []float64{0, 0.001, 0.001}, worse},
		{"failed_frac still zero", zero, []float64{0, 0, 0}, []float64{0, 0, 0}, same},
		{"one failing repetition in ten", zero, make([]float64, 10), append(make([]float64, 9), 0.001), worse},
		{"failures gone", zero, []float64{0, 0.001, 0}, []float64{0, 0, 0}, better},
		{"metric missing on one side", lower, tight(100), nil, unresolved},
		{"metric missing on the parent", zero, nil, []float64{0, 0}, unresolved},
		{"not a number", higher, tight(100), []float64{100, math.NaN(), 100}, unresolved},
	}
	for _, c := range cases {
		if got := judge(c.def, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}
