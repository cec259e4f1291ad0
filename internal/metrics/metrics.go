// Package metrics is the unified observability substrate for the whole
// repository: a registry of named, labeled series — atomic counters,
// gauges, and log-bucketed histograms — with point-in-time snapshots
// and a plain-text table exposition.
//
// The paper's central quantitative claim (§4) is that per-packet
// *control* costs tens of instructions while *data manipulation* costs
// cycles per byte. Seeing that split in a live run requires counting
// both kinds of work in one place, across layers: fragments and NACKs
// in core, segments and retransmits in otp, drops and queue depths in
// netsim, bytes touched per fused pass in ilp/experiments. Every layer
// registers its series here, and cmd/alfstat renders the whole tree.
//
// # Determinism
//
// The registry never reads the wall clock. Latency-shaped histograms
// are fed durations computed by the caller from the sim.Scheduler's
// virtual clock, so a seeded run produces byte-identical snapshots.
//
// # Cost when disabled
//
// Every method is safe on a nil receiver and every Registry
// constructor is safe on a nil *Registry (returning nil instruments).
// A component wired to a nil registry therefore pays one predictable
// nil-check branch per event — under a nanosecond, versus the <10 ns
// budget — and allocates nothing, at set-up either: BindStats and the
// components' bind functions return on a nil registry before building
// a label, a closure or a reflect.Value. Components keep their series
// pointers; there is no map lookup on any hot path.
//
// # Two kinds of series
//
// Native instruments (Counter, Gauge, Histogram) are atomic and safe
// for concurrent use. Sampled series adapt state a component already
// keeps, without double bookkeeping, and are read only at Snapshot
// time: BindStats registers every int64 field of a Stats struct under
// the name in its `metric` tag — the struct is the only place a
// counter is declared, AddStats the only adder — and CounterFunc /
// GaugeFunc cover values computed from live state (a queue depth, a
// map's length). Sampled series are read without synchronization, so
// they are intended for the single-goroutine simulation world; native
// instruments are the right choice wherever goroutines share a series.
package metrics

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind discriminates the series types in a Snapshot.
type Kind uint8

// Series kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String returns the kind name as it appears in the text exposition.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "unknown"
	}
}

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use; all methods are no-ops on a nil receiver.
type Counter struct{ v atomic.Int64 }

// Add adds n (n should be non-negative; counters are monotone).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous atomic value that may go up or down. The
// zero value is ready to use; all methods are no-ops on a nil receiver.
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// series is one registered (name, labels) entry.
type series struct {
	id     string // registry key: name plus sorted labels
	name   string
	labels []string // sorted "key=value" pairs
	kind   Kind

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fn      func() int64 // func-backed counter/gauge; nil for native
	ptr     *int64       // Stats-field-backed counter/gauge (BindStats)
}

// value reads a counter or gauge series from whichever of its four
// backings it has; a histogram series reads 0.
func (s *series) value() int64 {
	switch {
	case s.fn != nil:
		return s.fn()
	case s.ptr != nil:
		return *s.ptr
	case s.counter != nil:
		return s.counter.Value()
	case s.gauge != nil:
		return s.gauge.Value()
	}
	return 0
}

// Registry holds a set of named, labeled series. A nil *Registry is a
// valid no-op registry: constructors return nil instruments and
// Snapshot returns an empty snapshot. Methods are safe for concurrent
// use.
type Registry struct {
	mu     sync.Mutex
	series map[string]*series

	// ordered caches the series sorted by ID for Visit and Snapshot. It
	// is rebuilt lazily and invalidated by registration, so the steady
	// state — register everything up front, then sample every tick —
	// sorts once, not once per tick.
	ordered []*series
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{series: make(map[string]*series)}
}

// key builds the identity of a series: name plus sorted labels. It
// returns the canonical sorted label slice alongside.
func key(name string, labels []string) (string, []string) {
	if len(labels) == 0 {
		return name, nil
	}
	ls := append([]string(nil), labels...)
	sort.Strings(ls)
	return name + "{" + strings.Join(ls, ",") + "}", ls
}

// register finds or creates the series for (name, labels). make is
// called (under the lock) only when the series does not exist.
func (r *Registry) register(name string, labels []string, make func(ls []string) *series) *series {
	k, ls := key(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.series[k]; ok {
		return s
	}
	s := make(ls)
	s.id = k
	r.series[k] = s
	r.ordered = nil
	return s
}

// Counter returns the counter registered under name and labels,
// creating it on first use. Labels are "key=value" strings; their
// order is irrelevant to the series identity. Returns nil (a valid
// no-op counter) on a nil registry, or when the name is already
// registered as a different kind.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	s := r.register(name, labels, func(ls []string) *series {
		return &series{name: name, labels: ls, kind: KindCounter, counter: &Counter{}}
	})
	return s.counter
}

// Gauge returns the gauge registered under name and labels, creating
// it on first use. Returns nil on a nil registry.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	s := r.register(name, labels, func(ls []string) *series {
		return &series{name: name, labels: ls, kind: KindGauge, gauge: &Gauge{}}
	})
	return s.gauge
}

// Histogram returns the log-bucketed histogram registered under name
// and labels, creating it on first use. Returns nil on a nil registry.
func (r *Registry) Histogram(name string, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	s := r.register(name, labels, func(ls []string) *series {
		return &series{name: name, labels: ls, kind: KindHistogram, hist: newHistogram()}
	})
	return s.hist
}

// CounterFunc registers a counter whose value is produced by fn at
// snapshot time: the component's own state stays the single source of
// truth and the registry samples it, so the "view" can never drift
// from the counter. (For the fields of a Stats struct use BindStats.)
// fn is called without synchronization — the caller must ensure the
// underlying value is not being written concurrently with Snapshot
// (true by construction in the single-goroutine simulation).
// Re-registering the same (name, labels) replaces the function.
func (r *Registry) CounterFunc(name string, fn func() int64, labels ...string) {
	r.registerFunc(name, KindCounter, fn, labels)
}

// GaugeFunc registers a gauge whose value is produced by fn at
// snapshot time. Semantics match CounterFunc.
func (r *Registry) GaugeFunc(name string, fn func() int64, labels ...string) {
	r.registerFunc(name, KindGauge, fn, labels)
}

func (r *Registry) registerFunc(name string, kind Kind, fn func() int64, labels []string) {
	if r == nil || fn == nil {
		return
	}
	r.put(&series{name: name, kind: kind, fn: fn}, labels)
}

// put registers s under (s.name, labels), replacing any series already
// there.
func (r *Registry) put(s *series, labels []string) {
	s.id, s.labels = key(s.name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.series[s.id] = s
	r.ordered = nil
}

// Visit calls fn once per registered series, in ascending series-ID
// order, with the series' current value. For counters and gauges
// (native or func-backed) value carries the sample and h is nil; for
// histograms h is the live *Histogram (read it with ReadCounts) and
// value is unused. The ID ordering is total — IDs are
// unique map keys — so two visits over the same registry enumerate
// identically, which is what the telemetry recorder's deterministic
// ring layout relies on.
//
// fn runs outside the registry lock (func-backed series may read
// arbitrary component state), mirroring the Snapshot contract: safe
// against concurrent registration, unsynchronized against concurrent
// writes to func-backed values. A nil registry visits nothing.
func (r *Registry) Visit(fn func(id string, kind Kind, value int64, h *Histogram)) {
	if r == nil {
		return
	}
	for _, s := range r.sorted() {
		fn(s.id, s.kind, s.value(), s.hist)
	}
}

// sorted returns every series in ascending ID order, building the cache
// if a registration invalidated it.
func (r *Registry) sorted() []*series {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.ordered == nil {
		r.ordered = make([]*series, 0, len(r.series))
		for _, s := range r.series {
			r.ordered = append(r.ordered, s)
		}
		sort.Slice(r.ordered, func(i, j int) bool { return r.ordered[i].id < r.ordered[j].id })
	}
	return r.ordered
}
