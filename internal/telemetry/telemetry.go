// Package telemetry is the time-resolved layer of the observability
// plane: a virtual-clock flight recorder that periodically samples a
// metrics.Registry into fixed-capacity ring buffers of per-series
// samples, evaluates pluggable health detectors against the recorded
// history, and serializes a black-box post-mortem dump when a run
// fails.
//
// The paper's argument (§4–§5) is that a transport's *dynamics* —
// control-state convergence, rate adaptation, loss recovery — matter
// more than any point-in-time total. metrics.Snapshot shows totals;
// tracing shows one ADU's lifecycle; the recorder shows every series
// *over time*: the AIMD controller hunting, a custody store filling
// across a 40-minute conjunction.
//
// # Sample kinds
//
// Counters are recorded as per-interval deltas (the increment since
// the previous tick), gauges as instantaneous levels, and histograms
// as interval distributions: each histogram spawns derived series
// "<id>|count" (observations this interval), "<id>|p50" and "<id>|p99"
// (quantiles of this interval's observations only, computed by
// diffing raw bucket counts between ticks).
//
// # Ownership and determinism
//
// A Recorder belongs to one run: bind it to the run's scheduler and
// registry, never share one across runs, and never sample it from two
// goroutines at once. Sampling ticks fire on the virtual clock, every
// input it reads is deterministic for the seed, and series are
// enumerated in sorted-ID order — so two runs with the same seed
// produce bit-identical dumps.
//
// # Cost when disabled
//
// Like the rest of the observability plane, everything is safe on a
// nil *Recorder: a nil recorder schedules nothing, records nothing,
// and each guard is one predictable branch, so a run wired with a nil
// recorder pays ~0.
package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// SampleKind discriminates what a recorded sample means.
type SampleKind uint8

const (
	// Delta samples carry a counter's increment over one sampling
	// interval (first sample: increment since the recorder's baseline).
	Delta SampleKind = iota
	// Level samples carry a gauge's instantaneous value at the tick.
	Level
	// Quantile samples carry a quantile of the observations a histogram
	// absorbed during one sampling interval.
	Quantile
)

// String names the kind as it appears in dumps and CSV headers.
func (k SampleKind) String() string {
	switch k {
	case Delta:
		return "delta"
	case Level:
		return "level"
	case Quantile:
		return "quantile"
	default:
		return "unknown"
	}
}

// ring is a fixed-capacity overwrite-oldest buffer of int64 samples.
type ring struct {
	buf []int64 // len == capacity once allocated
	n   int     // total samples ever pushed
}

func newRing() ring { return ring{buf: make([]int64, capacity)} }

func (r *ring) push(v int64) {
	r.buf[r.n%len(r.buf)] = v
	r.n++
}

// length returns the number of retained samples (≤ capacity).
func (r *ring) length() int {
	if r.n < len(r.buf) {
		return r.n
	}
	return len(r.buf)
}

// at returns retained sample i, oldest-first (0 ≤ i < length).
func (r *ring) at(i int) int64 {
	if r.n <= len(r.buf) {
		return r.buf[i]
	}
	return r.buf[(r.n+i)%len(r.buf)]
}

// Series is the recorded history of one metric series: a ring of
// samples, one per sampling tick since the series was first seen. The
// newest sample of every series corresponds to the recorder's newest
// tick, so series windows align at the tail even when a series
// appeared mid-run or the ring has wrapped.
type Series struct {
	ID   string
	Kind SampleKind

	ring    ring
	prevRaw int64 // Delta: last raw cumulative value seen
}

// Len returns the number of retained samples.
func (s *Series) Len() int {
	if s == nil {
		return 0
	}
	return s.ring.length()
}

// At returns retained sample i, oldest-first.
func (s *Series) At(i int) int64 { return s.ring.at(i) }

// Last returns the newest sample, or 0 when empty.
func (s *Series) Last() int64 {
	if n := s.Len(); n > 0 {
		return s.ring.at(n - 1)
	}
	return 0
}

// capacity is the per-series ring size in samples, and maxIncidents
// bounds the incident log: when full the oldest incidents are dropped,
// keeping the ones nearest the crash.
const capacity, maxIncidents = 512, 512

// Config parameterizes a Recorder. The zero value is usable: every
// field has a default.
type Config struct {
	// Interval is the virtual-time sampling period (default 100ms).
	// Multi-hour soaks want seconds; short overload runs want tens of
	// milliseconds. The recorded window is capacity (512) intervals.
	Interval sim.Duration
	// Detectors are evaluated, in order, at the end of every sampling
	// tick. Detector state is per-recorder: do not share constructed
	// detectors between recorders.
	Detectors []*Detector
}

// histState carries the previous tick's raw bucket counts for one
// histogram, so each tick diffs against it to get the interval
// distribution.
type histState struct {
	prev      [metrics.NumBuckets]int64
	prevCount int64
}

// Recorder is the flight recorder. Create with New, wire with Bind,
// and read back with Series/MatchName/Incidents or the dump/render
// entry points. All methods are safe on a nil receiver.
type Recorder struct {
	cfg   Config
	reg   *metrics.Registry
	sched *sim.Scheduler

	times  ring
	ticks  int
	lastAt sim.Time

	series map[string]*Series
	order  []*Series // sorted by ID; rebuilt when dirty
	dirty  bool
	hists  map[string]*histState

	incidents        []Incident
	incidentsDropped int
	firing           map[string]bool // "det\x00series" keys asserted last tick

	scratch [metrics.NumBuckets]int64
	diff    [metrics.NumBuckets]int64
}

// New returns a recorder with cfg's zero fields defaulted. The
// recorder does nothing until bound (or manually sampled).
func New(cfg Config) *Recorder {
	if cfg.Interval <= 0 {
		cfg.Interval = 100 * time.Millisecond
	}
	return &Recorder{
		cfg:    cfg,
		times:  newRing(),
		series: make(map[string]*Series),
		hists:  make(map[string]*histState),
		firing: make(map[string]bool),
	}
}

// Bind attaches the recorder to a run: reg is the registry to sample
// and s the scheduler whose clock stamps the ticks. When until > now,
// a recurring sampling event fires every Interval, stopping at the
// until horizon or as soon as the scheduler's queue has otherwise
// drained — the recorder never keeps a run alive, so drain loops that
// run until idle still terminate.
//
// Bind also takes a baseline reading of every already-registered
// counter and histogram so the first tick's deltas cover exactly the
// first interval. Binding a nil recorder is a no-op.
func (r *Recorder) Bind(s *sim.Scheduler, reg *metrics.Registry, until sim.Time) {
	if r == nil {
		return
	}
	r.reg = reg
	r.sched = s
	r.baseline()
	r.lastAt = s.Now()
	if until <= s.Now() {
		return
	}
	iv := r.cfg.Interval
	s.Every(iv, func() bool {
		r.record(s.Now())
		return s.Now().Add(iv) <= until && s.Pending() > 0
	})
}

// baseline initializes Delta and histogram previous-values from the
// registry's current state without recording a tick.
func (r *Recorder) baseline() {
	r.reg.Visit(func(id string, kind metrics.Kind, v int64, h *metrics.Histogram) {
		switch {
		case h != nil:
			hs := r.histStateFor(id)
			hs.prevCount = h.ReadCounts(&hs.prev)
		case kind == metrics.KindCounter:
			r.seriesFor(id, Delta).prevRaw = v
		}
	})
}

// Sample forces one tick at the bound scheduler's current time — the
// final post-drain reading a soak takes before checking invariants,
// so the dump's newest samples reflect the end state. A second call at
// the newest tick's time is ignored.
func (r *Recorder) Sample() {
	if r == nil || r.sched == nil {
		return
	}
	r.record(r.sched.Now())
}

// record is the sampling tick.
func (r *Recorder) record(now sim.Time) {
	if r.ticks > 0 && now == r.lastAt {
		return
	}
	r.times.push(int64(now))
	r.ticks++
	r.lastAt = now

	r.reg.Visit(func(id string, kind metrics.Kind, v int64, h *metrics.Histogram) {
		switch {
		case h != nil:
			r.recordHistogram(id, h)
		case kind == metrics.KindCounter:
			s := r.seriesFor(id, Delta)
			r.catchUp(s)
			s.ring.push(v - s.prevRaw)
			s.prevRaw = v
		default:
			s := r.seriesFor(id, Level)
			r.catchUp(s)
			s.ring.push(v)
		}
	})

	r.detect(now)
}

// catchUp pads a series that missed ticks (registered mid-run) with
// zero samples so its tail stays aligned with the time ring: after
// this, the series has exactly one slot per tick before the current
// one. At most a ring's worth of zeros is written; the logical count
// then jumps, since older padding would have been overwritten anyway.
func (r *Recorder) catchUp(s *Series) {
	need := r.ticks - 1 - s.ring.n
	if need <= 0 {
		return
	}
	pad := need
	if pad > len(s.ring.buf) {
		pad = len(s.ring.buf)
	}
	for i := 0; i < pad; i++ {
		s.ring.push(0)
	}
	s.ring.n = r.ticks - 1
}

// recordHistogram diffs the histogram's raw buckets against the
// previous tick and pushes the derived |count, |p50, |p99 series.
func (r *Recorder) recordHistogram(id string, h *metrics.Histogram) {
	hs := r.histStateFor(id)
	count := h.ReadCounts(&r.scratch)
	var intervalN int64
	for i := range r.scratch {
		d := r.scratch[i] - hs.prev[i]
		r.diff[i] = d
		intervalN += d
	}
	hs.prev = r.scratch
	hs.prevCount = count

	push := func(suffix string, kind SampleKind, v int64) {
		s := r.seriesFor(id+suffix, kind)
		r.catchUp(s)
		s.ring.push(v)
	}
	push("|count", Delta, intervalN)
	push("|p50", Quantile, intervalQuantile(&r.diff, intervalN, 0.50))
	push("|p99", Quantile, intervalQuantile(&r.diff, intervalN, 0.99))
}

// intervalQuantile estimates the q-th quantile of one interval's
// observations from a bucket-count diff, reporting the upper bound of
// the bucket holding rank ceil(q*n) — HistogramValue.Quantile's walk
// and one-sided contract, without min/max clamps (interval extrema are
// not tracked). Empty intervals report 0.
func intervalQuantile(diff *[metrics.NumBuckets]int64, n int64, q float64) int64 {
	if n <= 0 {
		return 0
	}
	return metrics.BucketUpper(metrics.RankBucket(q, n, metrics.NumBuckets, func(i int) int64 { return diff[i] }))
}

// seriesFor finds or creates the recorded series for id.
func (r *Recorder) seriesFor(id string, kind SampleKind) *Series {
	if s, ok := r.series[id]; ok {
		return s
	}
	s := &Series{ID: id, Kind: kind, ring: newRing()}
	r.series[id] = s
	r.dirty = true
	return s
}

func (r *Recorder) histStateFor(id string) *histState {
	if hs, ok := r.hists[id]; ok {
		return hs
	}
	hs := &histState{}
	r.hists[id] = hs
	return hs
}

// Ticks returns the number of sampling ticks recorded so far (not
// bounded by capacity).
func (r *Recorder) Ticks() int {
	if r == nil {
		return 0
	}
	return r.ticks
}

// window returns how many trailing ticks are retained (none on a nil
// recorder).
func (r *Recorder) window() int {
	if r == nil {
		return 0
	}
	return r.times.length()
}

// Series returns the recorded series with the exact id, or nil.
func (r *Recorder) Series(id string) *Series {
	if r == nil {
		return nil
	}
	return r.series[id]
}

// orderedSeries returns all series sorted by ID.
func (r *Recorder) orderedSeries() []*Series {
	if r == nil {
		return nil
	}
	if r.dirty || r.order == nil {
		r.order = r.order[:0]
		for _, s := range r.series {
			r.order = append(r.order, s)
		}
		sort.Slice(r.order, func(i, j int) bool { return r.order[i].ID < r.order[j].ID })
		r.dirty = false
	}
	return r.order
}

// MatchName returns, in ID order, the series belonging to the metric
// name: the exact id, any labeled variant "name{...}", and any derived
// histogram series "name|p50" etc.
func (r *Recorder) MatchName(name string) []*Series {
	var out []*Series
	for _, s := range r.orderedSeries() {
		if s.ID == name || strings.HasPrefix(s.ID, name+"{") || strings.HasPrefix(s.ID, name+"|") {
			out = append(out, s)
		}
	}
	return out
}

// match returns, in ID order, the series whose ID contains substr
// ("" or "all" matches everything).
func (r *Recorder) match(substr string) []*Series {
	if substr == "all" {
		substr = ""
	}
	var out []*Series
	for _, s := range r.orderedSeries() {
		if strings.Contains(s.ID, substr) {
			out = append(out, s)
		}
	}
	return out
}

// LastRate returns the newest sample of a Delta series expressed per
// second of virtual time (sample / interval between the last two
// ticks). It returns 0 before the second tick, or for non-Delta
// series.
func (r *Recorder) LastRate(s *Series) float64 {
	if r == nil || s == nil || s.Kind != Delta || s.Len() == 0 {
		return 0
	}
	w := r.window()
	if w < 2 {
		return 0
	}
	dt := (sim.Time(r.times.at(w-1)) - sim.Time(r.times.at(w-2))).Seconds()
	if dt <= 0 {
		return 0
	}
	return float64(s.Last()) / dt
}

// Incident is one timestamped detector (or manual) event.
type Incident struct {
	At       sim.Time `json:"at_ns"`
	Detector string   `json:"detector"`
	Series   string   `json:"series,omitempty"`
	Message  string   `json:"message"`
}

// Incidents returns the retained incident log, oldest-first.
func (r *Recorder) Incidents() []Incident {
	if r == nil {
		return nil
	}
	return r.incidents
}

// Note appends a manual incident — the hook soak harnesses use to
// stamp invariant violations into the flight record so the dump
// carries the verdict next to the series that explain it. The
// timestamp is the newest tick time.
func (r *Recorder) Note(detector, series, format string, args ...any) {
	if r == nil {
		return
	}
	r.addIncident(Incident{At: r.lastAt, Detector: detector, Series: series, Message: fmt.Sprintf(format, args...)})
}

func (r *Recorder) addIncident(inc Incident) {
	if len(r.incidents) >= maxIncidents {
		drop := len(r.incidents) - maxIncidents + 1
		r.incidents = append(r.incidents[:0], r.incidents[drop:]...)
		r.incidentsDropped += drop
	}
	r.incidents = append(r.incidents, inc)
}

// detect runs the detector catalog and edge-triggers incidents: a
// finding asserted this tick but not last tick opens an incident; a
// key that stops being asserted closes with a "cleared" incident.
// Cleared keys are emitted in sorted order so the log is deterministic.
func (r *Recorder) detect(now sim.Time) {
	if len(r.cfg.Detectors) == 0 {
		return
	}
	asserted := make(map[string]bool)
	for _, det := range r.cfg.Detectors {
		for _, f := range det.check(r) {
			k := det.name + "\x00" + f.series
			asserted[k] = true
			if !r.firing[k] {
				r.addIncident(Incident{At: now, Detector: det.name, Series: f.series, Message: f.message})
			}
		}
	}
	var cleared []string
	for k := range r.firing {
		if !asserted[k] {
			cleared = append(cleared, k)
		}
	}
	sort.Strings(cleared)
	for _, k := range cleared {
		name, series, _ := strings.Cut(k, "\x00")
		r.addIncident(Incident{At: now, Detector: name, Series: series, Message: "cleared"})
	}
	r.firing = asserted
}
