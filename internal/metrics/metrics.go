// Package metrics is the unified observability substrate for the whole
// repository: a registry of named, labeled series — counters, gauges
// and log-bucketed histograms — with point-in-time snapshots and a
// plain-text table exposition.
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
// Every method is safe on a nil receiver, and Histogram on a nil
// *Registry returns a nil histogram. A component wired to a nil
// registry therefore pays one predictable nil-check branch per
// observation — under a nanosecond, versus the <10 ns budget — and
// allocates nothing, at set-up either: BindStats and the components'
// bind functions return on a nil registry before building a label, a
// closure or a reflect.Value. Components keep their histogram
// pointers; there is no map lookup on any hot path.
//
// # Three forms of series
//
// A count is an int64 field of a component's Stats struct, registered
// by BindStats under the name in its `metric` tag: the struct is the
// only place a counter is declared, AddStats the only adder. A live
// level (a queue depth, a map's length) is a GaugeFunc over state the
// component already keeps. A distribution is a Histogram, the one
// series whose storage the registry owns. Histogram finds or creates,
// so every caller naming a series observes into the same buckets;
// BindStats and GaugeFunc replace, because they store nothing and a
// component rebuilt under the same name must point its series at the
// new state. Stats fields and GaugeFuncs are read at Snapshot time
// without synchronization, so they belong to the single-goroutine
// simulation world; the registry lock and the histograms' atomics are
// what goroutines may share.
package metrics

import (
	"sort"
	"strings"
	"sync"
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

// series is one registered (name, labels) entry.
type series struct {
	id     string // registry key: name plus sorted labels
	name   string
	labels []string // sorted "key=value" pairs
	kind   Kind

	hist *Histogram
	fn   func() int64 // GaugeFunc
	ptr  *int64       // Stats field (BindStats)
}

// value reads a counter or gauge series from its Stats field or its
// function; a histogram series reads 0.
func (s *series) value() int64 {
	switch {
	case s.fn != nil:
		return s.fn()
	case s.ptr != nil:
		return *s.ptr
	}
	return 0
}

// Registry holds a set of named, labeled series. A nil *Registry is a
// valid no-op registry: Histogram returns nil and Snapshot returns an
// empty snapshot. Methods are safe for concurrent use.
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

// Histogram returns the log-bucketed histogram registered under name
// and labels, creating it on first use. Labels are "key=value" strings;
// their order is irrelevant to the series identity. Returns nil (a
// valid no-op histogram) on a nil registry, or when the name and labels
// are already registered as a counter or gauge.
func (r *Registry) Histogram(name string, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	k, ls := key(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.series[k]; ok {
		return s.hist
	}
	s := &series{id: k, name: name, labels: ls, kind: KindHistogram, hist: newHistogram()}
	r.series[k] = s
	r.ordered = nil
	return s.hist
}

// GaugeFunc registers a gauge whose value is produced by fn at
// snapshot time: the component's own state stays the single source of
// truth and the registry samples it, so the series can never drift
// from it. fn is called without synchronization — the caller must
// ensure the state it reads is not written concurrently with Snapshot
// (true by construction in the single-goroutine simulation).
// Re-registering the same (name, labels) replaces the function.
func (r *Registry) GaugeFunc(name string, fn func() int64, labels ...string) {
	if r == nil || fn == nil {
		return
	}
	r.put(&series{name: name, kind: KindGauge, fn: fn}, labels)
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
// order, with the series' current value. For counters and gauges value
// carries the sample and h is nil; for histograms h is the live
// *Histogram (read it with ReadCounts) and value is unused. The ID
// ordering is total — IDs are unique map keys — so two visits over the
// same registry enumerate identically, which is what the telemetry
// recorder's deterministic ring layout relies on.
//
// fn runs outside the registry lock (a GaugeFunc may read arbitrary
// component state), mirroring the Snapshot contract: safe against
// concurrent registration, unsynchronized against concurrent writes to
// the Stats fields and GaugeFunc state behind the values. A nil
// registry visits nothing.
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
