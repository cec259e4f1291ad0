package metrics

import (
	"testing"
	"time"
)

// BenchmarkCounterIncDisabled measures the cost a component pays per
// counter event when it was built against a nil (disabled) registry:
// one nil-check branch. The acceptance bar is <10 ns; this is
// sub-nanosecond on any modern host.
func BenchmarkCounterIncDisabled(b *testing.B) {
	var r *Registry
	c := r.Counter("core.send.fragments")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

// BenchmarkCounterInc measures a live atomic counter increment.
func BenchmarkCounterInc(b *testing.B) {
	c := New().Counter("core.send.fragments")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

// BenchmarkHistogramObserveDisabled is the disabled-path histogram
// cost (nil receiver).
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
	for i := 0; i < 32; i++ {
		r.Counter("bench.counter", "i="+string(rune('a'+i))).Add(int64(i))
	}
	for i := 0; i < 16; i++ {
		r.Gauge("bench.gauge", "i="+string(rune('a'+i))).Set(int64(i))
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
