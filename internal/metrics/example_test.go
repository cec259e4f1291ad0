package metrics_test

import (
	"fmt"
	"time"

	"repro/internal/metrics"
)

// Example shows the full register → observe → snapshot cycle in its
// three forms: a component's Stats struct bound by its tags for the
// counts, a GaugeFunc for a live level, a Histogram for a distribution,
// and a point-in-time snapshot read.
func Example() {
	reg := metrics.New()

	// A Stats struct is bound whole: every int64 field is a series named
	// by its tag and read from the field at snapshot time.
	var stats struct {
		Fragments int64 `metric:"fragments"`
		Resends   int64 `metric:"resent_adus"`
	}
	metrics.BindStats(reg, "core.send", &stats, "stream=1")
	queued := 0
	reg.GaugeFunc("netsim.link.queue_depth", func() int64 { return int64(queued) }, "link=a->b/0")
	lat := reg.Histogram("core.recv.adu_latency_ns", "stream=1")

	stats.Fragments += 3
	stats.Resends = 7
	queued = 2
	lat.ObserveDuration(4 * time.Millisecond)
	lat.ObserveDuration(6 * time.Millisecond)

	snap := reg.Snapshot()
	fmt.Println("fragments =", snap.Value("core.send.fragments", "stream=1"))
	fmt.Println("resends   =", snap.Value("core.send.resent_adus", "stream=1"))
	fmt.Println("depth     =", snap.Value("netsim.link.queue_depth", "link=a->b/0"))
	m, _ := snap.Get("core.recv.adu_latency_ns", "stream=1")
	fmt.Printf("latency   = n=%d mean=%s\n", m.Hist.Count, time.Duration(int64(m.Hist.Mean())))
	// Output:
	// fragments = 3
	// resends   = 7
	// depth     = 2
	// latency   = n=2 mean=5ms
}

// ExampleHistogram_Observe shows log-bucketed size accounting: buckets
// double in width, so four ADU sizes land in three buckets.
func ExampleHistogram_Observe() {
	reg := metrics.New()
	sizes := reg.Histogram("core.send.adu_bytes")
	for _, n := range []int64{100, 120, 300, 5000} {
		sizes.Observe(n)
	}
	m, _ := reg.Snapshot().Get("core.send.adu_bytes")
	for _, b := range m.Hist.Buckets {
		fmt.Printf("[%d,%d] %d\n", b.Lo, b.Hi, b.Count)
	}
	// Output:
	// [64,127] 2
	// [256,511] 1
	// [4096,8191] 1
}
