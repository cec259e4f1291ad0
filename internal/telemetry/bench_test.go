package telemetry

import (
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// The disabled recorder must cost a nil-check branch and nothing else:
// the acceptance bar is a few ns/op at most.
func BenchmarkDisabledSample(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Sample()
	}
}

// A live sampling tick over a realistically sized registry (64
// counters, 32 gauges, 8 histograms): the per-tick cost a run pays
// for the flight record. Not on any per-packet path.
func BenchmarkSampleTick(b *testing.B) {
	reg := metrics.New()
	for i := 0; i < 8; i++ {
		shard := "shard=" + string(rune('0'+i))
		for j := 0; j < 8; j++ {
			metrics.BindStats(reg, "bench.ctr"+string(rune('0'+j)), &byteStats{Bytes: int64(i + j)}, shard)
		}
		for j := 0; j < 4; j++ {
			reg.GaugeFunc("bench.gauge"+string(rune('0'+j)), func() int64 { return int64(j) }, shard)
		}
		reg.Histogram("bench.lat_ns", shard).Observe(int64(1000 * (i + 1)))
	}
	r := New(Config{Interval: time.Millisecond})
	r.Bind(sim.NewScheduler(), reg, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.record(sim.Time(i + 1))
	}
}
