package metrics

import (
	"testing"
	"time"
)

// BenchmarkHistogramObserveDisabled measures the cost a component pays
// per observation when it was built against a nil (disabled) registry:
// one nil-check branch. The acceptance bar is <10 ns; this is
// sub-nanosecond on any modern host.
func BenchmarkHistogramObserveDisabled(b *testing.B) {
	var r *Registry
	h := r.Histogram("core.recv.adu_latency_ns")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.ObserveDuration(time.Duration(i))
	}
}

// BenchmarkHistogramObserve measures a live histogram observation:
// count, sum, bucket, min and max updates.
func BenchmarkHistogramObserve(b *testing.B) {
	h := New().Histogram("core.recv.adu_latency_ns")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}

// BenchmarkSnapshot measures capturing a registry of realistic size
// (64 series): this is off the hot path, but alfstat calls it.
func BenchmarkSnapshot(b *testing.B) {
	r := New()
	stats := make([]testStats, 16)
	for i := range stats {
		stats[i].Pkts = int64(i)
		BindStats(r, "bench", &stats[i], "i="+string(rune('a'+i)))
	}
	for i := 0; i < 16; i++ {
		r.GaugeFunc("bench.gauge", func() int64 { return int64(i) }, "i="+string(rune('a'+i)))
	}
	for i := 0; i < 16; i++ {
		r.Histogram("bench.hist_ns", "i="+string(rune('a'+i))).Observe(int64(i))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if snap := r.Snapshot(); len(snap.Metrics) != 64 {
			b.Fatalf("snapshot has %d series", len(snap.Metrics))
		}
	}
}
