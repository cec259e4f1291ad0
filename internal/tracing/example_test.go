package tracing_test

import (
	"fmt"
	"time"

	"repro/internal/sim"
	"repro/internal/tracing"
)

// Example records one ADU's lifecycle by hand and reconstructs its
// latency attribution. In real use the recording calls are made by the
// protocol layers — set alf.Config.Tracer / otp.Config.Tracer /
// netsim.Network.SetTracer to the same *Tracer and every event below
// happens automatically.
func Example() {
	s := sim.NewScheduler()
	tr := tracing.New(s)

	at := func(d sim.Duration, fn func()) { s.At(sim.Time(0).Add(d), fn) }
	at(0, func() { tr.EmitTag(tracing.ADUSubmit, 0, 7, 42, 1000) })
	at(1*time.Millisecond, func() { tr.Emit(tracing.FragTX, 0, 7, 0, 1000, time.Millisecond) })
	at(5*time.Millisecond, func() { tr.Emit(tracing.FragRX, 0, 7, 0, 1000, 0) })
	at(6*time.Millisecond, func() { tr.Emit(tracing.ADUDeliver, 0, 7, 0, 1000, 0) })
	if err := s.Run(); err != nil {
		panic(err)
	}

	a := tr.Analyze().ADU(0, 7)
	fmt.Printf("adu %d (tag %d): %s after %v\n", a.Name, a.Tag, a.Outcome, a.Attr.Total)
	fmt.Printf("pace=%v transit=%v reassembly=%v\n",
		a.Attr.SenderPace, a.Attr.NetTransit, a.Attr.Reassembly)
	// Output:
	// adu 7 (tag 42): delivered after 6ms
	// pace=1ms transit=4ms reassembly=1ms
}
