package soak

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestOverloadClosedLoopNoCollapse is the core overload soak: three
// streams offer 18 Mb/s into an 8 Mb/s trunk under every arrival
// shape, and the closed loop (feedback, AIMD, shedding, recovery cap)
// must uphold all the no-collapse invariants.
func TestOverloadClosedLoopNoCollapse(t *testing.T) {
	for _, shape := range OverloadShapes {
		t.Run(shape, func(t *testing.T) {
			rec := RecorderFor(6*time.Second, OverloadDetectors()...)
			dumpOnFailure(t, rec, "overload-closed-"+shape)
			res, err := RunOverload(OverloadConfig{Seed: 42, Mode: "closed", Shape: shape, Planes: Planes{Recorder: rec}})
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range res.Violations {
				t.Errorf("invariant violated: %s", v)
			}
			// The run must have actually been an overload the mechanisms
			// worked against, not a gentle one they slept through.
			if res.ShedADUs == 0 {
				t.Error("3:1 overload shed nothing; shedding never engaged")
			}
			for _, st := range res.Streams {
				if st.RateChanges == 0 {
					t.Errorf("stream %d: controller never moved the rate", st.StreamID)
				}
				if st.FinalRateBps >= 6e6 {
					t.Errorf("stream %d: final rate %.1f Mb/s never backed off the 6 Mb/s offer",
						st.StreamID, st.FinalRateBps/1e6)
				}
			}
			t.Logf("goodput=%.2f Mb/s (floor %.2f) shed=%d trunkDrops=%d drain=%d",
				res.GoodputBps/1e6, res.GoodputTarget/1e6, res.ShedADUs,
				res.TrunkDrops, res.DrainEvents)
		})
	}
}

// TestOverloadFixedRateCollapses: the same overload with open-loop
// senders must demonstrably collapse — the goodput floor and the
// Critical-loss invariant both break, under every shape. This is the
// contrast that justifies the closed loop.
func TestOverloadFixedRateCollapses(t *testing.T) {
	for _, shape := range OverloadShapes {
		t.Run(shape, func(t *testing.T) {
			res, err := RunOverload(OverloadConfig{Seed: 42, Mode: "fixed", Shape: shape})
			if err != nil {
				t.Fatal(err)
			}
			if res.Passed() {
				t.Fatal("open-loop senders at 3:1 overload violated no invariant; the contrast is gone")
			}
			if res.GoodputBps >= res.GoodputTarget {
				t.Errorf("fixed-rate goodput %.2f Mb/s above the %.2f floor; congestion collapse not demonstrated",
					res.GoodputBps/1e6, res.GoodputTarget/1e6)
			}
			critLost := 0
			for _, st := range res.Streams {
				critLost += st.CriticalLost
			}
			if critLost == 0 {
				t.Error("fixed-rate run lost no Critical ADUs; priority protection shows no contrast")
			}
			t.Logf("goodput=%.2f Mb/s (floor %.2f) critLost=%d trunkDrops=%d violations=%d",
				res.GoodputBps/1e6, res.GoodputTarget/1e6, critLost,
				res.TrunkDrops, len(res.Violations))
		})
	}
}

// TestOverloadClosedBeatsFixed pins the contrast on one seed: same
// offered load, same shape, and the closed loop must deliver more
// useful bytes, near but not past the bottleneck's capacity, while
// dropping far less in the bottleneck queue.
func TestOverloadClosedBeatsFixed(t *testing.T) {
	closed, err := RunOverload(OverloadConfig{Seed: 7, Mode: "closed"})
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := RunOverload(OverloadConfig{Seed: 7, Mode: "fixed"})
	if err != nil {
		t.Fatal(err)
	}
	if closed.GoodputBps <= fixed.GoodputBps {
		t.Errorf("closed goodput %.2f Mb/s not above fixed %.2f Mb/s",
			closed.GoodputBps/1e6, fixed.GoodputBps/1e6)
	}
	if frac := closed.GoodputBps / closed.CapacityBps; frac <= 0.7 || frac >= 1.05 {
		t.Errorf("closed goodput is %.2f of capacity, outside (0.7, 1.05)", frac)
	}
	if closed.TrunkDrops >= fixed.TrunkDrops {
		t.Errorf("closed trunk drops %d not below fixed %d",
			closed.TrunkDrops, fixed.TrunkDrops)
	}
}

// TestOverloadShedsOnlyDroppable: the shed counter must be backed
// entirely by Droppable refusals — Critical and Standard submissions
// always enter the wire path (the consistency cross-check inside
// RunOverload enforces accepted+shed == submitted per stream).
func TestOverloadShedsOnlyDroppable(t *testing.T) {
	res, err := RunOverload(OverloadConfig{Seed: 11, Mode: "closed"})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("invariant violated: %s", v)
	}
	for _, st := range res.Streams {
		// 60% of the offer is Droppable; a 3:1 overload has to refuse
		// some of it, and nothing else.
		if st.Shed == 0 {
			t.Errorf("stream %d: shed nothing under 3:1 overload", st.StreamID)
		}
		if st.Shed > st.Submitted*6/10 {
			t.Errorf("stream %d: shed %d of %d exceeds the Droppable share",
				st.StreamID, st.Shed, st.Submitted)
		}
		if st.RetxSuppressed == 0 {
			t.Errorf("stream %d: recovery cap never suppressed a retransmission", st.StreamID)
		}
	}
}

// TestOverloadDeterminism: an overload run is a pure function of its
// config — the fixed-seed reproducibility `make soak` relies on.
func TestOverloadDeterminism(t *testing.T) {
	for _, mode := range []string{"closed", "fixed"} {
		cfg := OverloadConfig{Seed: 42, Mode: mode, Shape: "flash"}
		a, err := RunOverload(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := RunOverload(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: identical configs diverged:\n%+v\n%+v", mode, a, b)
		}
	}
}

// TestOverloadSeedSweep: the closed loop's no-collapse guarantee is
// not a property of one lucky seed.
func TestOverloadSeedSweep(t *testing.T) {
	seeds := 8
	if testing.Short() {
		seeds = 2
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		shape := OverloadShapes[seed%int64(len(OverloadShapes))]
		res, err := RunOverload(OverloadConfig{Seed: seed, Mode: "closed", Shape: shape})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range res.Violations {
			t.Errorf("seed %d (%s): %s", seed, shape, v)
		}
	}
}

// TestOverloadConfigDefaults locks the documented zero-value behavior
// the tools (alfchaos -overload) depend on.
func TestOverloadConfigDefaults(t *testing.T) {
	var c OverloadConfig
	c.fill()
	if c.Shape != "steady" || c.Mode != "closed" || overloadStreams != 3 {
		t.Errorf("defaults = %+v, %d streams", c, overloadStreams)
	}
	if overloadOfferedBps*overloadStreams <= trunkRateBps {
		t.Error("default offered load does not overload the trunk")
	}
}

// TestOverloadBadShape: an unknown shape must still run (steady
// placement) rather than panic — but the tools validate names, so the
// canonical list must contain what they advertise.
func TestOverloadBadShape(t *testing.T) {
	if strings.Join(OverloadShapes, ",") != "steady,burst,flash" {
		t.Errorf("OverloadShapes = %v", OverloadShapes)
	}
}
