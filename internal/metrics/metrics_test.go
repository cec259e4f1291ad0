package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// testStats is a component's Stats struct in miniature: one count and
// one level.
type testStats struct {
	Pkts  int64 `metric:"pkts"`
	Depth int64 `metric:"depth,gauge"`
}

func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	var st testStats
	BindStats(r, "x", &st, "link=a->b")
	st.Pkts++
	st.Pkts += 4
	st.Depth = 4
	snap := r.Snapshot()
	if m, _ := snap.Get("x.pkts", "link=a->b"); m.Kind != KindCounter || m.Value != 5 {
		t.Errorf("counter = %v %d, want counter 5", m.Kind, m.Value)
	}
	if m, _ := snap.Get("x.depth", "link=a->b"); m.Kind != KindGauge || m.Value != 4 {
		t.Errorf("gauge = %v %d, want gauge 4", m.Kind, m.Value)
	}
	// Same identity returns the same histogram.
	if r.Histogram("h") != r.Histogram("h") {
		t.Error("re-registering a histogram returned a new instrument")
	}
	// Label order must not matter for identity.
	r.GaugeFunc("multi", func() int64 { return 1 }, "b=2", "a=1")
	r.Histogram("lat", "b=2", "a=1").Observe(1)
	if got := r.Snapshot().Value("multi", "a=1", "b=2"); got != 1 {
		t.Errorf("label-order-insensitive lookup = %d, want 1", got)
	}
	if r.Histogram("lat", "a=1", "b=2") != r.Histogram("lat", "b=2", "a=1") {
		t.Error("label order changed a histogram's identity")
	}
}

func TestNilRegistryAndInstruments(t *testing.T) {
	var r *Registry
	h := r.Histogram("z")
	if h != nil {
		t.Fatal("nil registry must hand out a nil histogram")
	}
	// All no-ops, no panics.
	h.Observe(9)
	h.ObserveDuration(time.Second)
	r.GaugeFunc("f", func() int64 { return 1 })
	BindStats(r, "x", &testStats{Pkts: 1})
	snap := r.Snapshot()
	if len(snap.Metrics) != 0 {
		t.Errorf("nil registry snapshot has %d series", len(snap.Metrics))
	}
}

// TestConcurrentCounterIncrements drives what goroutines may share in
// a registry: its lock, under Histogram and GaugeFunc registration and
// Snapshot from every worker, and the histograms' atomics, under
// Observe into one shared histogram.
func TestConcurrentCounterIncrements(t *testing.T) {
	r := New()
	const workers, per = 16, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lb := fmt.Sprintf("w=%02d", w)
			h := r.Histogram("lat_ns") // find-or-create: every worker gets the same one
			own := r.Histogram("own_ns", lb)
			r.GaugeFunc("worker", func() int64 { return int64(w) }, lb)
			for i := 0; i < per; i++ {
				h.Observe(int64(w*per + i))
				own.Observe(int64(i))
				if i%500 == 0 {
					r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	snap := r.Snapshot()
	if len(snap.Metrics) != 1+2*workers {
		t.Errorf("%d series, want %d", len(snap.Metrics), 1+2*workers)
	}
	hv, _ := snap.Get("lat_ns")
	if hv.Hist.Count != workers*per {
		t.Errorf("histogram count = %d, want %d", hv.Hist.Count, workers*per)
	}
	if hv.Hist.Min != 0 || hv.Hist.Max != workers*per-1 {
		t.Errorf("histogram min/max = %d/%d, want 0/%d", hv.Hist.Min, hv.Hist.Max, workers*per-1)
	}
	for w := 0; w < workers; w++ {
		lb := fmt.Sprintf("w=%02d", w)
		own, _ := snap.Get("own_ns", lb)
		if got := snap.Value("worker", lb); got != int64(w) || own.Hist == nil || own.Hist.Count != per {
			t.Errorf("worker %d: gauge %d, own histogram %+v", w, got, own.Hist)
		}
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	r := New()
	h := r.Histogram("sizes")
	cases := []struct {
		v      int64
		bucket int
	}{
		{math.MinInt64, 0}, {-1, 0}, {0, 0}, // everything <= 0
		{1, 1},
		{2, 2}, {3, 2},
		{4, 3}, {7, 3},
		{8, 4},
		{1 << 62, 63},
		{math.MaxInt64, 63}, // 2^63-1 has bit length 63: top bucket
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.bucket {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.bucket)
		}
		h.Observe(c.v)
	}
	// Every bucket's inclusive bounds must contain the values mapped
	// into it, including the MaxInt64 cap of the top bucket.
	for _, c := range cases {
		lo, hi := bucketBounds(c.bucket)
		if c.v < lo || c.v > hi {
			t.Errorf("value %d outside bucket %d bounds [%d,%d]", c.v, c.bucket, lo, hi)
		}
	}

	hv, _ := r.Snapshot().Get("sizes")
	if hv.Hist.Min != math.MinInt64 || hv.Hist.Max != math.MaxInt64 {
		t.Errorf("min/max = %d/%d", hv.Hist.Min, hv.Hist.Max)
	}
	if hv.Hist.Count != int64(len(cases)) {
		t.Errorf("count = %d, want %d", hv.Hist.Count, len(cases))
	}
	var n int64
	for _, b := range hv.Hist.Buckets {
		if b.Lo > b.Hi {
			t.Errorf("bucket with Lo %d > Hi %d", b.Lo, b.Hi)
		}
		n += b.Count
	}
	if n != hv.Hist.Count {
		t.Errorf("bucket counts sum to %d, want %d", n, hv.Hist.Count)
	}
}

func TestHistogramQuantileAndMean(t *testing.T) {
	r := New()
	h := r.Histogram("q")
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	hv, _ := r.Snapshot().Get("q")
	if got := hv.Hist.Mean(); got != 500.5 {
		t.Errorf("mean = %v, want 500.5", got)
	}
	// Log buckets bound the quantile estimate by one bucket width:
	// the true p50 is 500, whose bucket is [256,511].
	if q := hv.Hist.Quantile(0.5); q < 500 || q > 1023 {
		t.Errorf("p50 = %d, want within [500,1023]", q)
	}
	if q := hv.Hist.Quantile(1); q != 1000 {
		t.Errorf("p100 = %d, want 1000 (clamped to max)", q)
	}
	if q := hv.Hist.Quantile(0); q < 1 {
		t.Errorf("p0 = %d, want >= observed min", q)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	r := New()
	var st testStats
	BindStats(r, "s", &st)
	h := r.Histogram("h")
	var live int64 = 1
	r.GaugeFunc("fn", func() int64 { return live })
	st.Pkts += 10
	h.Observe(100)

	snap := r.Snapshot()
	st.Pkts += 5
	h.Observe(200)
	live = 99

	if got := snap.Value("s.pkts"); got != 10 {
		t.Errorf("snapshot counter mutated: %d, want 10", got)
	}
	if got := snap.Value("fn"); got != 1 {
		t.Errorf("snapshot func series mutated: %d, want 1", got)
	}
	m, _ := snap.Get("h")
	if m.Hist.Count != 1 || m.Hist.Max != 100 {
		t.Errorf("snapshot histogram mutated: count=%d max=%d", m.Hist.Count, m.Hist.Max)
	}
	// And the new snapshot sees the updates.
	snap2 := r.Snapshot()
	if snap2.Value("s.pkts") != 15 || snap2.Value("fn") != 99 {
		t.Errorf("second snapshot stale: s.pkts=%d fn=%d", snap2.Value("s.pkts"), snap2.Value("fn"))
	}
}

// TestFuncSeriesRebind: GaugeFunc and BindStats store nothing, so a
// second registration under the same identity replaces the first.
func TestFuncSeriesRebind(t *testing.T) {
	r := New()
	r.GaugeFunc("events", func() int64 { return 1 })
	r.GaugeFunc("events", func() int64 { return 2 })
	BindStats(r, "s", &testStats{Pkts: 1})
	BindStats(r, "s", &testStats{Pkts: 2})
	snap := r.Snapshot()
	if got := snap.Value("events"); got != 2 {
		t.Errorf("rebinding a func series kept the old fn: %d", got)
	}
	if got := snap.Value("s.pkts"); got != 2 {
		t.Errorf("rebinding a Stats struct kept the old field: %d", got)
	}
}

func TestWriteText(t *testing.T) {
	r := New()
	BindStats(r, "core.send", &struct {
		Fragments int64 `metric:"fragments"`
	}{42}, "stream=1")
	r.GaugeFunc("netsim.link.queue_depth", func() int64 { return 3 }, "link=a->b/0")
	h := r.Histogram("core.recv.adu_latency_ns", "stream=1")
	h.ObserveDuration(3 * time.Millisecond)
	h.ObserveDuration(9 * time.Millisecond)
	out := r.Snapshot().String()
	for _, want := range []string{
		"core.send.fragments{stream=1}",
		"counter",
		"42",
		"netsim.link.queue_depth{link=a->b/0}",
		"histogram",
		"n=2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	// The _ns suffix renders as durations.
	if !strings.Contains(out, "ms") {
		t.Errorf("latency histogram not rendered as durations:\n%s", out)
	}
}

func TestMixedKindRegistration(t *testing.T) {
	r := New()
	BindStats(r, "name", &testStats{Pkts: 3})
	// Asking for a histogram under an identity bound as a counter must
	// not panic and must hand back a nil (no-op) histogram rather than
	// corrupt state.
	h := r.Histogram("name.pkts")
	if h != nil {
		t.Error("kind-mismatched registration should return nil")
	}
	h.Observe(3) // still safe
	if m, _ := r.Snapshot().Get("name.pkts"); m.Kind != KindCounter || m.Value != 3 || m.Hist != nil {
		t.Errorf("counter after mismatched Histogram = %+v", m)
	}
}

func TestTextExpositionDeterministicOrder(t *testing.T) {
	// Series identity ordering must not depend on registration order or
	// map iteration: the flight recorder's CSV and sparkline renderers
	// golden-diff against this output.
	build := func(names []string) string {
		r := New()
		for _, n := range names {
			switch {
			case strings.HasPrefix(n, "g."):
				r.GaugeFunc(n, func() int64 { return 7 }, "shard=1")
			case strings.HasPrefix(n, "h."):
				r.Histogram(n).Observe(100)
			default:
				BindStats(r, n, &testStats{Pkts: 3}, "stream=0")
			}
		}
		var b strings.Builder
		if err := r.Snapshot().WriteText(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	names := []string{"c.bytes", "g.depth", "h.latency_ns", "c.adus", "g.rate"}
	fwd := build(names)
	rev := build([]string{"g.rate", "c.adus", "h.latency_ns", "g.depth", "c.bytes"})
	if fwd != rev {
		t.Fatalf("exposition depends on registration order:\n--- forward ---\n%s--- reverse ---\n%s", fwd, rev)
	}
	// And the rows really are sorted by ID.
	var ids []string
	for _, m := range New().Snapshot().Metrics {
		ids = append(ids, m.ID())
	}
	r := New()
	for _, n := range names {
		BindStats(r, n, &testStats{})
	}
	ids = ids[:0]
	for _, m := range r.Snapshot().Metrics {
		ids = append(ids, m.ID())
	}
	if !sort.StringsAreSorted(ids) {
		t.Fatalf("snapshot IDs not sorted: %v", ids)
	}
}

func TestVisitOrderAndValues(t *testing.T) {
	r := New()
	BindStats(r, "b", &testStats{Pkts: 5})
	r.GaugeFunc("a.level", func() int64 { return -3 })
	h := r.Histogram("c.lat_ns")
	h.Observe(10)
	h.Observe(1000)
	r.GaugeFunc("a.fn", func() int64 { return 42 })

	var ids []string
	vals := map[string]int64{}
	r.Visit(func(id string, kind Kind, v int64, hh *Histogram) {
		ids = append(ids, id)
		if hh != nil {
			var counts [NumBuckets]int64
			v = hh.ReadCounts(&counts)
			if counts[bucketOf(10)] != 1 || counts[bucketOf(1000)] != 1 {
				t.Errorf("ReadCounts missed observations: %v", counts)
			}
		}
		vals[id] = v
	})
	want := []string{"a.fn", "a.level", "b.depth", "b.pkts", "c.lat_ns"}
	if len(ids) != len(want) {
		t.Fatalf("visited %v, want %v", ids, want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("visited %v, want %v", ids, want)
		}
	}
	if vals["b.pkts"] != 5 || vals["a.level"] != -3 || vals["a.fn"] != 42 || vals["c.lat_ns"] != 2 {
		t.Errorf("visit values = %v", vals)
	}
	// Nil registry visits nothing.
	(*Registry)(nil).Visit(func(string, Kind, int64, *Histogram) { t.Error("nil registry visited a series") })
}

func TestVisitOrderedCacheInvalidation(t *testing.T) {
	r := New()
	r.Histogram("z")
	visit := func() (ids []string) {
		r.Visit(func(id string, _ Kind, _ int64, _ *Histogram) { ids = append(ids, id) })
		return ids
	}
	visit()                                     // build cache
	r.GaugeFunc("m", func() int64 { return 1 }) // must invalidate
	if ids := visit(); len(ids) != 2 || ids[0] != "m" || ids[1] != "z" {
		t.Fatalf("visit after GaugeFunc = %v, want [m z]", ids)
	}
	r.Histogram("a") // must invalidate
	if ids := visit(); len(ids) != 3 || ids[0] != "a" || ids[1] != "m" {
		t.Fatalf("visit after Histogram = %v, want [a m z]", ids)
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	// Empty histogram: every quantile is 0.
	empty := newHistogram().snapshot()
	for _, q := range []float64{0, 0.5, 1} {
		if got := empty.Quantile(q); got != 0 {
			t.Errorf("empty Quantile(%v) = %d, want 0", q, got)
		}
	}

	// Single observation: every quantile is that value (min/max clamp).
	one := newHistogram()
	one.Observe(100)
	hv := one.snapshot()
	for _, q := range []float64{0, 0.25, 0.5, 1} {
		if got := hv.Quantile(q); got != 100 {
			t.Errorf("single-value Quantile(%v) = %d, want 100", q, got)
		}
	}

	// All observations in one bucket [64,127]: every quantile lands in
	// it, clamped into [Min, Max] = [100, 120].
	h := newHistogram()
	h.Observe(100)
	h.Observe(110)
	h.Observe(120)
	hv = h.snapshot()
	if got := hv.Quantile(0); got != 120 {
		t.Errorf("single-bucket Quantile(0) = %d, want bucket-upper clamped to Max=120", got)
	}
	if got := hv.Quantile(1); got != 120 {
		t.Errorf("single-bucket Quantile(1) = %d, want Max=120", got)
	}
	if got := hv.Quantile(0.5); got != 120 {
		t.Errorf("single-bucket Quantile(0.5) = %d, want bucket-upper clamped to 120", got)
	}

	// Two buckets: q=0 reports the smallest observation's bucket upper
	// bound (the estimate is one-sided — never below the true value),
	// q=1 reports Max exactly, and the midpoint reports the first
	// bucket's upper bound.
	h2 := newHistogram()
	h2.Observe(10) // bucket [8,15]
	h2.Observe(40) // bucket [32,63]
	hv = h2.snapshot()
	if got := hv.Quantile(0); got != 15 {
		t.Errorf("Quantile(0) = %d, want smallest bucket upper 15", got)
	}
	if got := hv.Quantile(1); got != 40 {
		t.Errorf("Quantile(1) = %d, want Max=40", got)
	}
	if got := hv.Quantile(0.5); got != 15 {
		t.Errorf("Quantile(0.5) = %d, want first bucket upper 15", got)
	}
}

func TestBucketUpperAndReadCountsNil(t *testing.T) {
	if got := BucketUpper(bucketOf(100)); got != 127 {
		t.Errorf("BucketUpper(bucketOf(100)) = %d, want 127", got)
	}
	if got := BucketUpper(-1); got != 0 {
		t.Errorf("BucketUpper(-1) = %d, want 0", got)
	}
	if got := BucketUpper(NumBuckets); got != 0 {
		t.Errorf("BucketUpper(NumBuckets) = %d, want 0", got)
	}
	var counts [NumBuckets]int64
	counts[3] = 9 // must be zeroed by the nil read
	if got := (*Histogram)(nil).ReadCounts(&counts); got != 0 || counts[3] != 0 {
		t.Errorf("nil ReadCounts = %d, counts[3]=%d; want 0, 0", got, counts[3])
	}
}
