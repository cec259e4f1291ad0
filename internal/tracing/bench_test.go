package tracing_test

import (
	"testing"

	"repro/internal/buf"
	alf "repro/internal/core"
	"repro/internal/sim"
	"repro/internal/tracing"
	"repro/internal/xcode"
)

// The disabled-tracer contract: a nil *Tracer costs one predicted
// branch per recording call (Emit inlines; the Packet* hooks are a
// call that returns at once) and allocates nothing.
// BenchmarkDisabledTracer measures the per-call price directly;
// BenchmarkSenderSend measures the sender hot path it rides on, traced
// and untraced.

func BenchmarkDisabledTracer(b *testing.B) {
	var tr *tracing.Tracer
	b.Run("Emit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr.Emit(tracing.FragTX, 0, uint64(i), 0, 1000, 0)
		}
	})
	b.Run("PacketQueued", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr.PacketQueued("l", nil, 0, 0)
		}
	})
}

func BenchmarkEnabledTracer(b *testing.B) {
	s := sim.NewScheduler()
	tr := tracing.New(s)
	tr.SetLimit(1 << 24)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Emit(tracing.FragTX, 0, uint64(i), 0, 1000, 0)
	}
}

// benchSender builds an ALF sender on s whose wire sink drops every
// packet. NoRetransmit: nothing retained, so the loop never fills the
// retention buffer and measures framing + emission alone; and no send
// function, so no heartbeat either.
func benchSender(tb testing.TB, s *sim.Scheduler, tr *tracing.Tracer) *alf.Sender {
	tb.Helper()
	snd, err := alf.NewSender(s, nil, alf.Config{Policy: alf.NoRetransmit, Tracer: tr})
	if err != nil {
		tb.Fatal(err)
	}
	snd.SendRef = func(ref *buf.Ref) error { ref.Release(); return nil }
	return snd
}

// BenchmarkSenderSend is the sender hot path the nil-tracer branch
// must not tax: compare the "untraced" and "traced" variants.
func BenchmarkSenderSend(b *testing.B) {
	payload := make([]byte, 1000)
	b.Run("untraced", func(b *testing.B) {
		snd := benchSender(b, sim.NewScheduler(), nil)
		b.SetBytes(int64(len(payload)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := snd.Send(uint64(i), xcode.SyntaxRaw, payload); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("traced", func(b *testing.B) {
		s := sim.NewScheduler()
		tr := tracing.New(s)
		tr.SetLimit(1) // steady state: recording branch taken, buffer full
		snd := benchSender(b, s, tr)
		b.SetBytes(int64(len(payload)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := snd.Send(uint64(i), xcode.SyntaxRaw, payload); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestDisabledTracerOverhead holds the disabled tracer to what can be
// asserted exactly: no recording hook allocates on a nil *Tracer. (That
// the nil check costs a branch and not a call is the compiler's word,
// which make alloc-guard reads: "can inline (*Tracer).Emit".)
func TestDisabledTracerOverhead(t *testing.T) {
	var tr *tracing.Tracer
	payload := make([]byte, 64)
	links := []string{"l"}
	hooks := map[string]func(){
		"Emit":            func() { tr.Emit(tracing.FragTX, 0, 1, 0, 1000, 0) },
		"EmitTag":         func() { tr.EmitTag(tracing.ADUSubmit, 0, 1, 2, 1000) },
		"PacketQueued":    func() { tr.PacketQueued("l", payload, 0, 0) },
		"PacketDelivered": func() { tr.PacketDelivered("l", payload, 0) },
		"PacketDropped":   func() { tr.PacketDropped("l", "down", payload) },
		"FaultBegan":      func() { tr.FaultBegan("blackout", links) },
		"FaultEnded":      func() { tr.FaultEnded(1) },
	}
	for name, hook := range hooks {
		if n := testing.AllocsPerRun(100, hook); n != 0 {
			t.Errorf("%s on a nil tracer allocates (%v allocs/call)", name, n)
		}
	}
}

// TestSenderTracerOverhead holds the sender's Send path to the exact
// half of its tracing budget: a saturated tracer (recording branch
// taken, buffer full) adds no allocation to a Send. The nanoseconds it
// adds are compared in timing_test.go.
func TestSenderTracerOverhead(t *testing.T) {
	payload := make([]byte, 1000)
	allocs := func(tr *tracing.Tracer) float64 {
		s := sim.NewScheduler()
		tr.Bind(s)
		snd := benchSender(t, s, tr)
		var name uint64
		return testing.AllocsPerRun(100, func() {
			name++
			if _, err := snd.Send(name, xcode.SyntaxRaw, payload); err != nil {
				t.Fatal(err)
			}
		})
	}
	full := tracing.New(nil)
	full.SetLimit(1)
	if off, on := allocs(nil), allocs(full); on != off {
		t.Errorf("Send allocates %v times with a saturated tracer, %v with none", on, off)
	}
}
