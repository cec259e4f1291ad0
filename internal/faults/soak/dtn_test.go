package soak

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestDTNCustodySurvivesConjunction is the core DTN soak: a three-hop
// path with an eight-minute one-way delay loses its middle hop to two
// 40-minute blackouts, and the custody stance (relays + WindowedRate)
// must uphold every delay-tolerant invariant — Critical exactly-once,
// bounded relay storage, clean drain.
func TestDTNCustodySurvivesConjunction(t *testing.T) {
	rec := RecorderFor(4*time.Hour, DTNDetectors()...)
	dumpOnFailure(t, rec, "dtn-custody")
	res, err := RunDTN(DTNConfig{Seed: 1, Mode: "custody", Planes: Planes{Recorder: rec}})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("invariant violated: %s", v)
	}
	// The run must have actually exercised the custody machinery, not
	// idled through a gentle scenario.
	if res.CustodyReleased == 0 {
		t.Error("custody transfer never released sender retention")
	}
	if res.RelayEvicted == 0 {
		t.Error("relay store never hit its bound; eviction untested")
	}
	if res.NacksAnswered == 0 {
		t.Error("relays never answered a NACK locally")
	}
	if res.RelayRetxADUs == 0 {
		t.Error("relays never re-originated custody after the heal")
	}
	t.Logf("delivered=%d/%d critLost=%d peakStore=%dB (bound %d) evicted=%d retx=%d drain=%d end=%v",
		res.Delivered, res.Submitted, res.CriticalLost, res.RelayPeakBytes,
		2<<20, res.RelayEvicted, res.RelayRetxADUs, res.DrainEvents, res.EndVirtual)
}

// TestDTNEndToEndCollapses: the same conjunction with plain forwarders
// and the terrestrial AIMD controller must demonstrably fail —
// sender retention expires during blackout-spanning recovery loops and
// Critical ADUs die. This is the contrast that justifies the custody
// plane. Each Critical loss is a violation of its own, so the verdict
// names every one the counter counts.
func TestDTNEndToEndCollapses(t *testing.T) {
	res, err := RunDTN(DTNConfig{Seed: 1, Mode: "aimd"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Passed() {
		t.Fatal("end-to-end recovery across a 40-minute blackout violated no invariant; the contrast is gone")
	}
	if res.CriticalLost == 0 {
		t.Error("end-to-end run lost no Critical ADUs; custody shows no contrast")
	}
	flagged := 0
	for _, v := range res.Violations {
		if strings.Contains(v, "Critical ADU") && strings.HasSuffix(v, "lost across the blackout") {
			flagged++
		}
	}
	if flagged != res.CriticalLost {
		t.Errorf("%d violations name a lost Critical ADU, want one for each of the %d lost", flagged, res.CriticalLost)
	}
	if res.DeadlineDrops == 0 {
		t.Error("no retention deadline expired; the blackout never stressed the sender")
	}
	t.Logf("delivered=%d/%d critLost=%d deadlineDrops=%d unfilledNacks=%d violations=%d",
		res.Delivered, res.Submitted, res.CriticalLost, res.DeadlineDrops,
		res.UnfilledNacks, len(res.Violations))
}

// TestDTNCustodyBeatsEndToEnd pins the contrast on one seed: same
// path, same conjunction, and custody must deliver strictly more while
// losing zero Critical traffic.
func TestDTNCustodyBeatsEndToEnd(t *testing.T) {
	custody, err := RunDTN(DTNConfig{Seed: 7, Mode: "custody"})
	if err != nil {
		t.Fatal(err)
	}
	aimd, err := RunDTN(DTNConfig{Seed: 7, Mode: "aimd"})
	if err != nil {
		t.Fatal(err)
	}
	if custody.Delivered <= aimd.Delivered {
		t.Errorf("custody delivered %d, not above end-to-end %d",
			custody.Delivered, aimd.Delivered)
	}
	if custody.CriticalLost != 0 {
		t.Errorf("custody lost %d Critical ADUs", custody.CriticalLost)
	}
	if aimd.CriticalLost == 0 {
		t.Error("end-to-end lost no Critical ADUs; no contrast")
	}
}

// TestDTNDeterminism: a DTN run is a pure function of its config — the
// fixed-seed reproducibility `make soak-dtn` relies on.
func TestDTNDeterminism(t *testing.T) {
	for _, mode := range DTNModes {
		cfg := DTNConfig{Seed: 42, Mode: mode}
		a, err := RunDTN(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := RunDTN(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: identical configs diverged:\n%+v\n%+v", mode, a, b)
		}
	}
}

// TestDTNSeedSweep: custody's no-loss guarantee is not a property of
// one lucky seed.
func TestDTNSeedSweep(t *testing.T) {
	seeds := 5
	if testing.Short() {
		seeds = 2
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		res, err := RunDTN(DTNConfig{Seed: seed, Mode: "custody"})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range res.Violations {
			t.Errorf("seed %d: %s", seed, v)
		}
	}
}

// TestDTNConfigDefaults locks the documented zero-value behavior and
// scenario shape the tools (alfchaos -dtn) depend on.
func TestDTNConfigDefaults(t *testing.T) {
	var c DTNConfig
	c.fill()
	if c.Mode != "custody" || DTNHorizon != 4*time.Hour || dtnCount != 240 {
		t.Errorf("defaults = %+v, horizon %v, %d ADUs", c, DTNHorizon, dtnCount)
	}
	if dtnHopDelay != 160*time.Second {
		t.Errorf("hop delay = %v, want the 8-minute one-way path", dtnHopDelay)
	}
	if dtnStorageLimit != 2<<20 {
		t.Errorf("storage limit = %d", dtnStorageLimit)
	}
}

// TestDTNBadMode: an unknown stance is a harness error, not a silent
// default.
func TestDTNBadMode(t *testing.T) {
	if _, err := RunDTN(DTNConfig{Mode: "tcp"}); err == nil {
		t.Error("unknown mode accepted")
	}
}
