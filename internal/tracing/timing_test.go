//go:build timing

package tracing_test

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/tracing"
	"repro/internal/xcode"
)

// Wall-clock assertions: run by `make timing` on a quiet host, never by
// `go test ./...`.

// TestSenderTracerTiming compares the full sender Send path with a
// nil tracer against one with a saturated tracer (recording branch
// taken, buffer full): the marginal cost per Send must stay within a
// few nanoseconds times the handful of hook sites on the path.
func TestSenderTracerTiming(t *testing.T) {
	payload := make([]byte, 1000)
	run := func(tr func() *tracing.Tracer) testing.BenchmarkResult {
		return testing.Benchmark(func(b *testing.B) {
			snd := benchSender(b, sim.NewScheduler(), tr())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := snd.Send(uint64(i), xcode.SyntaxRaw, payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	off := run(func() *tracing.Tracer { return nil })
	on := run(func() *tracing.Tracer {
		s := sim.NewScheduler()
		tr := tracing.New(s)
		tr.SetLimit(1)
		return tr
	})
	delta := on.NsPerOp() - off.NsPerOp()
	t.Logf("sender Send: untraced %d ns/op, saturated tracer %d ns/op (delta %d)", off.NsPerOp(), on.NsPerOp(), delta)
	// Send records ~2 events (submit + fragment); a saturated tracer's
	// marginal cost must stay in the tens of nanoseconds, far under a
	// microsecond-scale Send. Generous bound: flag only regressions.
	if delta > 200 {
		t.Errorf("tracer adds %d ns to Send (untraced %d), want ≤200", delta, off.NsPerOp())
	}
}
