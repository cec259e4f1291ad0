package alf

import (
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/xcode"
)

// TestStatsMatchRegistry is the regression contract for the unified
// metrics layer on a live run, lossy enough to exercise recovery: the
// registry reads what the endpoints and links counted.
func TestStatsMatchRegistry(t *testing.T) {
	reg := metrics.New()
	sched := sim.NewScheduler()
	net := netsim.New(sched, 7)
	net.SetMetrics(reg)
	a, b := net.NewNode("a"), net.NewNode("b")
	ab, ba := net.NewDuplex(a, b, netsim.LinkConfig{
		RateBps: 5e7, Delay: 2 * time.Millisecond, LossProb: 0.05,
	})

	cfg := Config{MTU: 256 + HeaderSize, Metrics: reg}
	snd, rcv, err := Connect(sched, a, b, ab, ba, cfg)
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	rcv.OnADU = func(ADU) { delivered++ }

	for i := 0; i < 50; i++ {
		if _, err := snd.Send(uint64(i), xcode.SyntaxRaw, payload(2000, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	sched.Run()
	if delivered != 50 {
		t.Fatalf("delivered %d/50 ADUs", delivered)
	}
	if snd.Stats.ResentADUs == 0 {
		t.Fatal("scenario did not exercise recovery; raise the loss rate")
	}

	snap := reg.Snapshot()
	sv := func(name string) int64 { return snap.Value(name, "stream=0") }

	// The Stats fields themselves are covered, tag by tag, by
	// metrics.TestStatsStructsBindEveryField; these are the gauges
	// computed from live state, and one bound counter each way to show
	// the series follow the run.
	for name, want := range map[string]int64{
		"core.send.buffered_bytes": int64(snd.BufferedBytes()),
		"core.send.buffered_adus":  int64(snd.BufferedADUs()),
		"core.send.resent_adus":    snd.Stats.ResentADUs,
		"core.recv.pending_adus":   int64(rcv.Pending()),
		"core.recv.settled":        int64(rcv.Settled()),
		"core.recv.adus_delivered": rcv.Stats.ADUsDelivered,
	} {
		if got := sv(name); got != want {
			t.Errorf("%s = %d, endpoint says %d", name, got, want)
		}
	}

	// Native instruments: one latency and one size observation per
	// delivered ADU; the fused stage-one pass touched exactly the
	// accepted fragment bytes (no FEC in this scenario).
	lat, ok := snap.Get("core.recv.adu_latency_ns", "stream=0")
	if !ok || lat.Hist.Count != rcv.Stats.ADUsDelivered {
		t.Errorf("adu_latency_ns count = %+v, want %d observations", lat.Hist, rcv.Stats.ADUsDelivered)
	}
	if lat.Hist.Min <= 0 {
		t.Errorf("adu latency min = %d, want > 0 (link has delay)", lat.Hist.Min)
	}
	sizes, _ := snap.Get("core.recv.adu_bytes", "stream=0")
	if sizes.Hist.Count != rcv.Stats.ADUsDelivered || sizes.Hist.Min != 2000 || sizes.Hist.Max != 2000 {
		t.Errorf("adu_bytes histogram = %+v", sizes.Hist)
	}
	if got := sv("core.recv.ilp_pass_bytes"); got != rcv.Stats.FragmentBytes {
		t.Errorf("recv ilp_pass_bytes = %d, want FragmentBytes %d", got, rcv.Stats.FragmentBytes)
	}
	if got := sv("core.send.ilp_pass_bytes"); got != 50*2000 {
		t.Errorf("send ilp_pass_bytes = %d, want %d", got, 50*2000)
	}

	// netsim link series view the link stats.
	if got := snap.Value("netsim.link.sent", "link=a->b/0"); got != ab.Stats.Sent {
		t.Errorf("netsim.link.sent = %d, link stats = %d", got, ab.Stats.Sent)
	}
	if got := snap.Value("netsim.link.line_losses", "link=a->b/0"); got != ab.Stats.LineLosses || got == 0 {
		t.Errorf("netsim.link.line_losses = %d, link stats = %d (want non-zero)", got, ab.Stats.LineLosses)
	}
	if got := snap.Value("netsim.link.delivered_bytes", "link=b->a/1"); got != ba.Stats.DeliveredBytes || got == 0 {
		t.Errorf("control-path delivered_bytes = %d, link stats = %d", got, ba.Stats.DeliveredBytes)
	}
}

// TestMetricsDisabled pins the zero-cost contract: endpoints built
// without a registry run identically and register nothing.
func TestMetricsDisabled(t *testing.T) {
	p := newPair(t, netsim.LinkConfig{Delay: time.Millisecond}, Config{}, 1)
	p.snd.Send(0, xcode.SyntaxRaw, payload(500, 9))
	p.sched.Run()
	if len(p.adus) != 1 {
		t.Fatalf("delivered %d ADUs without metrics", len(p.adus))
	}
	if p.snd.m.aduBytes != nil || p.rcv.m.aduLatency != nil {
		t.Error("nil registry must produce nil instruments")
	}
}

// TestNilRegistryBindsNothing bounds what a sender + receiver pair
// allocates when there is no registry to bind to — the shard plane's
// case, 65 536 times over: the endpoints' own timers and structs, and
// not one label, closure, series or per-name table, and no timer that
// its config never arms. (67 with the closure tables, 18 with the four
// name maps, 14 with all four timers built at two allocations each.)
func TestNilRegistryBindsNothing(t *testing.T) {
	sched := sim.NewScheduler()
	discard := func([]byte) error { return nil }
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := NewSender(sched, discard, Config{}); err != nil {
			t.Fatal(err)
		}
		if _, err := NewReceiver(sched, discard, Config{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 6 {
		t.Errorf("NewSender + NewReceiver on a nil registry: %.0f allocs, want <= 6", allocs)
	}
}
