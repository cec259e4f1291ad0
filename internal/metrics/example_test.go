package metrics_test

import (
	"fmt"
	"time"

	"repro/internal/metrics"
)

// Example shows the full register → observe → snapshot cycle: native
// instruments for new measurements, a component's Stats struct bound
// by its tags, and a point-in-time snapshot read.
func Example() {
	reg := metrics.New()

	// Native instruments: atomic, safe for concurrent observers.
	frags := reg.Counter("core.send.fragments", "stream=1")
	depth := reg.Gauge("netsim.link.queue_depth", "link=a->b/0")
	lat := reg.Histogram("core.recv.adu_latency_ns", "stream=1")

	frags.Add(3)
	depth.Set(2)
	lat.ObserveDuration(4 * time.Millisecond)
	lat.ObserveDuration(6 * time.Millisecond)

	// A Stats struct is bound whole: every int64 field is a series named
	// by its tag and read from the field at snapshot time.
	stats := struct {
		Resends int64 `metric:"resent_adus"`
	}{Resends: 7}
	metrics.BindStats(reg, "core.send", &stats, "stream=1")

	snap := reg.Snapshot()
	fmt.Println("fragments =", snap.Value("core.send.fragments", "stream=1"))
	fmt.Println("resends   =", snap.Value("core.send.resent_adus", "stream=1"))
	m, _ := snap.Get("core.recv.adu_latency_ns", "stream=1")
	fmt.Printf("latency   = n=%d mean=%s\n", m.Hist.Count, time.Duration(int64(m.Hist.Mean())))
	// Output:
	// fragments = 3
	// resends   = 7
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
