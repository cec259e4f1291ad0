package otp

import (
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/wire"
)

// TestConnMetrics checks the registry against a live lossy transfer:
// the bound Stats, the computed gauges and the native segment-size
// histogram.
func TestConnMetrics(t *testing.T) {
	reg := metrics.New()
	sched := sim.NewScheduler()
	net := netsim.New(sched, 11)
	net.SetMetrics(reg)
	a, b := net.NewNode("a"), net.NewNode("b")
	ab, ba := net.NewDuplex(a, b, netsim.LinkConfig{
		RateBps: 1e7, Delay: 2 * time.Millisecond, LossProb: 0.03,
	})

	cfg := Config{MSS: 500, FastRetransmit: true, Metrics: reg}
	snd, rcv := Connect(sched, a, b, ab, ba, cfg, Config{MSS: 500, FastRetransmit: true})

	var got int64
	rcv.OnData = func(p []byte) { got += int64(len(p)) }
	const total = 200_000
	if err := snd.Send(make([]byte, total)); err != nil {
		t.Fatal(err)
	}
	sched.RunUntil(sim.Time(0).Add(60 * time.Second))
	if got != total {
		t.Fatalf("delivered %d/%d bytes", got, total)
	}
	if snd.Stats.Retransmits == 0 {
		t.Fatal("scenario did not exercise loss recovery")
	}

	snap := reg.Snapshot()
	// The Stats fields are covered tag by tag by
	// metrics.TestStatsStructsBindEveryField.
	for name, want := range map[string]int64{
		"otp.retransmits":   snd.Stats.Retransmits,
		"otp.srtt_ns":       int64(snd.rtt.SRTT),
		"otp.unacked_bytes": 0,
	} {
		if got := snap.Value(name, "conn=0"); got != want {
			t.Errorf("%s = %d, connection says %d", name, got, want)
		}
	}
	segs, ok := snap.Get("otp.segment_bytes", "conn=0")
	if !ok || segs.Hist.Count != snd.Stats.SegmentsSent {
		t.Errorf("segment_bytes count = %+v, want %d", segs.Hist, snd.Stats.SegmentsSent)
	}
	if segs.Hist.Max != 500 {
		t.Errorf("segment_bytes max = %d, want MSS", segs.Hist.Max)
	}
}

// TestHeadOfLineStallHistogram forces a single deterministic loss and
// checks that exactly one stall is recorded with a plausible duration:
// the receiver sat on out-of-order data from the gap's appearance
// until the retransmission filled it.
func TestHeadOfLineStallHistogram(t *testing.T) {
	reg := metrics.New()
	sched := sim.NewScheduler()
	net := netsim.New(sched, 1)
	a, b := net.NewNode("a"), net.NewNode("b")
	ab, ba := net.NewDuplex(a, b, netsim.LinkConfig{Delay: time.Millisecond})
	snd, rcv := Connect(sched, a, b, ab, ba,
		Config{MSS: 100, ConnID: 1}, Config{MSS: 100, ConnID: 1, Metrics: reg})
	dataSegs := 0
	b.SetHandler(func(pk *netsim.Packet) {
		if pk.Payload[0]&wire.OTPData != 0 {
			if dataSegs++; dataSegs == 3 {
				return // the loss: the third data segment, once
			}
		}
		rcv.HandleSegment(pk.Payload)
	})

	if err := snd.Send(make([]byte, 1000)); err != nil {
		t.Fatal(err)
	}
	sched.RunUntil(sim.Time(0).Add(10 * time.Second))
	if rcv.Delivered() != 1000 {
		t.Fatalf("delivered %d/1000", rcv.Delivered())
	}

	m, ok := reg.Snapshot().Get("otp.hol_stall_ns", "conn=1")
	if !ok || m.Hist.Count != 1 {
		t.Fatalf("hol_stall_ns = %+v, want exactly 1 stall", m.Hist)
	}
	// The stall spans at least the RTO wait (InitialRTO 200 ms default
	// minus the time already elapsed); it certainly exceeds one RTT.
	if min := m.Hist.Min; min < int64(2*time.Millisecond) {
		t.Errorf("stall duration = %v, implausibly short", time.Duration(min))
	}
}

// TestNilRegistryBindsNothing: a connection built without a registry
// allocates its own state and nothing for metrics.
func TestNilRegistryBindsNothing(t *testing.T) {
	sched := sim.NewScheduler()
	allocs := testing.AllocsPerRun(100, func() { New(sched, drop, Config{}) })
	if allocs > 10 {
		t.Errorf("otp.New on a nil registry: %.0f allocs, want <= 10", allocs)
	}
}
