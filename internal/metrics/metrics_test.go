package metrics

import (
	"math"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("pkts")
	c.Add(1)
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	// Same identity returns the same instrument.
	if r.Counter("pkts") != c {
		t.Error("re-registering a counter returned a new instrument")
	}

	g := r.Gauge("depth", "link=a->b")
	g.Set(4)
	if got := g.Value(); got != 4 {
		t.Errorf("gauge = %d, want 4", got)
	}
	// Label order must not matter for identity.
	c2 := r.Counter("multi", "b=2", "a=1")
	c2.Add(1)
	if got := r.Counter("multi", "a=1", "b=2").Value(); got != 1 {
		t.Errorf("label-order-insensitive lookup = %d, want 1", got)
	}
}

func TestNilRegistryAndInstruments(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z")
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil instruments")
	}
	// All no-ops, no panics.
	c.Add(1)
	c.Add(3)
	g.Set(1)
	h.Observe(9)
	h.ObserveDuration(time.Second)
	r.CounterFunc("f", func() int64 { return 1 })
	r.GaugeFunc("f2", func() int64 { return 1 })
	if c.Value() != 0 || g.Value() != 0 {
		t.Error("nil instruments must read as zero")
	}
	snap := r.Snapshot()
	if len(snap.Metrics) != 0 {
		t.Errorf("nil registry snapshot has %d series", len(snap.Metrics))
	}
}

func TestConcurrentCounterIncrements(t *testing.T) {
	r := New()
	c := r.Counter("concurrent")
	h := r.Histogram("lat_ns")
	const workers, per = 16, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Add(1)
				h.Observe(int64(w*per + i))
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Errorf("counter = %d, want %d", got, workers*per)
	}
	hv, _ := r.Snapshot().Get("lat_ns")
	if hv.Hist.Count != workers*per {
		t.Errorf("histogram count = %d, want %d", hv.Hist.Count, workers*per)
	}
	if hv.Hist.Min != 0 || hv.Hist.Max != workers*per-1 {
		t.Errorf("histogram min/max = %d/%d, want 0/%d", hv.Hist.Min, hv.Hist.Max, workers*per-1)
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
	c := r.Counter("c")
	h := r.Histogram("h")
	var live int64 = 1
	r.GaugeFunc("fn", func() int64 { return live })
	c.Add(10)
	h.Observe(100)

	snap := r.Snapshot()
	c.Add(5)
	h.Observe(200)
	live = 99

	if got := snap.Value("c"); got != 10 {
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
	if snap2.Value("c") != 15 || snap2.Value("fn") != 99 {
		t.Errorf("second snapshot stale: c=%d fn=%d", snap2.Value("c"), snap2.Value("fn"))
	}
}

func TestFuncSeriesRebind(t *testing.T) {
	r := New()
	r.CounterFunc("events", func() int64 { return 1 })
	r.CounterFunc("events", func() int64 { return 2 })
	if got := r.Snapshot().Value("events"); got != 2 {
		t.Errorf("rebinding a func series kept the old fn: %d", got)
	}
}

func TestWriteText(t *testing.T) {
	r := New()
	r.Counter("core.send.fragments", "stream=1").Add(42)
	r.Gauge("netsim.link.queue_depth", "link=a->b/0").Set(3)
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
	r.Counter("name")
	// Asking for the same identity as another kind must not panic and
	// must hand back a nil (no-op) instrument rather than corrupt state.
	g := r.Gauge("name")
	if g != nil {
		t.Error("kind-mismatched registration should return nil")
	}
	g.Set(3) // still safe
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
				r.Gauge(n, "shard=1").Set(7)
			case strings.HasPrefix(n, "h."):
				r.Histogram(n).Observe(100)
			default:
				r.Counter(n, "stream=0").Add(3)
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
		r.Counter(n)
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
	r.Counter("b.count").Add(5)
	r.Gauge("a.level").Set(-3)
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
	want := []string{"a.fn", "a.level", "b.count", "c.lat_ns"}
	if len(ids) != len(want) {
		t.Fatalf("visited %v, want %v", ids, want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("visited %v, want %v", ids, want)
		}
	}
	if vals["b.count"] != 5 || vals["a.level"] != -3 || vals["a.fn"] != 42 || vals["c.lat_ns"] != 2 {
		t.Errorf("visit values = %v", vals)
	}
	// Nil registry visits nothing.
	(*Registry)(nil).Visit(func(string, Kind, int64, *Histogram) { t.Error("nil registry visited a series") })
}

func TestVisitOrderedCacheInvalidation(t *testing.T) {
	r := New()
	r.Counter("z")
	r.Visit(func(string, Kind, int64, *Histogram) {}) // build cache
	r.Counter("a")                                    // must invalidate
	var ids []string
	r.Visit(func(id string, _ Kind, _ int64, _ *Histogram) { ids = append(ids, id) })
	if len(ids) != 2 || ids[0] != "a" || ids[1] != "z" {
		t.Fatalf("visit after registration = %v, want [a z]", ids)
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
