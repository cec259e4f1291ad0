package soak

import (
	"reflect"
	"testing"
	"time"

	alf "repro/internal/core"
	"repro/internal/tracing"
)

// policies cycles the three recovery schemes through the scenario
// matrix.
var policies = []alf.Policy{alf.SenderBuffered, alf.AppRecompute, alf.NoRetransmit}

// TestScenarioMatrix is the core soak: every named scenario against
// every ALF recovery policy (with OTP riding the same faulty trunk),
// each run checked against the full invariant set.
func TestScenarioMatrix(t *testing.T) {
	for _, scenario := range []string{"flap", "blackout", "degrade", "partition", "random"} {
		for _, policy := range policies {
			t.Run(scenario+"/"+policy.String(), func(t *testing.T) {
				rec := RecorderFor(3*time.Second, ChaosDetectors()...)
				dumpOnFailure(t, rec, "chaos-"+scenario+"-"+policy.String())
				res, err := Run(Config{
					Seed:     1000 + int64(policy),
					Scenario: scenario,
					Policy:   policy,
					Planes:   Planes{Recorder: rec},
				})
				if err != nil {
					t.Fatal(err)
				}
				for _, v := range res.Violations {
					t.Errorf("invariant violated: %s", v)
				}
				if res.Delivered == 0 {
					t.Error("no ADUs delivered at all; scenario drowned the run")
				}
				// The scenario must actually have disturbed the network.
				switch scenario {
				case "degrade":
					if res.Faults.Degrades == 0 {
						t.Error("degrade scenario injected nothing")
					}
				default:
					if res.Faults.DownEvents == 0 {
						t.Error("scenario took no link down")
					}
				}
				t.Logf("delivered=%d lost=%d expired=%d resent=%d recomputed=%d "+
					"otp=%d/%dB dead=%v drainEvents=%d",
					res.Delivered, res.Lost, res.Expired, res.ResentADUs,
					res.RecomputeADUs, res.OTPDelivered, res.OTPSent,
					res.OTPDead, res.DrainEvents)
			})
		}
	}
}

// TestBlackoutShedsAndReports: a blackout longer than the ADU deadline
// must actually exercise the give-up paths — retention shed at the
// sender, losses reported at the receiver — not merely survive.
func TestBlackoutShedsAndReports(t *testing.T) {
	res, err := Run(Config{Seed: 7, Scenario: "blackout", Policy: alf.SenderBuffered})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("invariant violated: %s", v)
	}
	if res.Expired == 0 {
		t.Error("1s blackout with 400ms deadline shed nothing")
	}
	if res.Lost == 0 {
		t.Error("no ADU reported lost despite sender-side sheds")
	}
	if res.UnfilledNacks == 0 {
		t.Error("no unfilled NACKs; receiver never chased a shed ADU")
	}
	if res.TrunkDownDrops == 0 {
		t.Error("blackout dropped nothing on the trunk")
	}
	if res.Delivered+res.Lost != res.Submitted {
		t.Errorf("delivered %d + lost %d != submitted %d",
			res.Delivered, res.Lost, res.Submitted)
	}
}

// TestHoldOnDownTrunk: the same invariants must hold when a down trunk
// parks packets instead of dropping them (flap heals replay the held
// queue in order).
func TestHoldOnDownTrunk(t *testing.T) {
	res, err := Run(Config{Seed: 11, Scenario: "flap", Policy: alf.SenderBuffered,
		HoldOnDown: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("invariant violated: %s", v)
	}
	if res.TrunkHeld == 0 {
		t.Error("HoldOnDown trunk parked nothing across 4 flaps")
	}
}

// TestDeterminism: a soak run is a pure function of its Config.
func TestDeterminism(t *testing.T) {
	cfg := Config{Seed: 42, Scenario: "random", Policy: alf.AppRecompute}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("identical configs diverged:\n%+v\n%+v", a, b)
	}
}

// TestSeedSweep: randomized schedules across seeds; every one must
// uphold the invariants. Short mode keeps the sweep narrow.
func TestSeedSweep(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 3
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		policy := policies[seed%int64(len(policies))]
		res, err := Run(Config{Seed: seed, Scenario: "random", Policy: policy})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range res.Violations {
			t.Errorf("seed %d (%v): %s", seed, policy, v)
		}
	}
}

// TestLongBlackoutKillsOTP: a blackout dominating the horizon must trip
// OTP's FailThreshold — the connection dies explicitly and the
// scheduler still drains.
func TestLongBlackoutKillsOTP(t *testing.T) {
	res, err := Run(Config{
		Seed:     5,
		Scenario: "blackout",
		Policy:   alf.NoRetransmit,
		// The dead fuse is 8 consecutive RTOs from MinRTO doubling into
		// the 1s ceiling: 50+100+200+400+800+1000x3 ~= 4.6s. The blackout
		// preset darkens the trunk for a third of the horizon, so 18s
		// gives a 6s outage that must trip it.
		Duration: 18 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("invariant violated: %s", v)
	}
	if !res.OTPDead {
		t.Errorf("OTP survived a 6s blackout with an ~4.6s dead fuse (timeouts=%d)",
			res.OTPTimeouts)
	}
	if res.OTPDelivered >= res.OTPSent {
		t.Error("dead connection claims full delivery")
	}
}

// TestTracedRun: a tracer handed in through Config.Tracer (built
// before the run's scheduler existed, so exercising the Bind path)
// must record the whole run, and the analyzer must see every
// submitted ADU plus the injected fault windows.
func TestTracedRun(t *testing.T) {
	tracer := tracing.New(nil)
	res, err := Run(Config{
		Seed:     42,
		Scenario: "blackout",
		Planes:   Planes{Tracer: tracer},
	})
	if err != nil {
		t.Fatal(err)
	}
	if tracer.Len() == 0 {
		t.Fatal("tracer bound via Config.Tracer recorded nothing")
	}
	rep := tracer.Analyze()
	if got := len(rep.ADUs); got != 60 {
		t.Errorf("analyzer saw %d ALF ADUs, want the full 60", got)
	}
	if len(rep.Faults) == 0 {
		t.Error("blackout scenario left no fault spans in the trace")
	}
	delivered := 0
	for _, a := range rep.ADUs {
		if a.Outcome == "delivered" {
			delivered++
		}
	}
	if delivered != res.Delivered {
		t.Errorf("trace says %d delivered, soak result says %d",
			delivered, res.Delivered)
	}
}
