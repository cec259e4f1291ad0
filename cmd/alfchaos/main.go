// Command alfchaos runs one of the simulated soak families
// (internal/faults/soak) and prints its invariant summary and the full
// unified metric tree. The default family runs a named fault-injection
// scenario (internal/faults) against the ALF stack and the
// ordered-transport baseline sharing one topology; -overload asks a
// bottleneck for more than it has, and -dtn crosses an interplanetary
// path.
//
// The run is deterministic: the flags fully determine the traffic, the
// fault schedule, and every loss. A clean run exits 0; any invariant
// violation is printed and exits 1, so the command doubles as a
// scriptable chaos gate. -all sweeps a family's variants and stances,
// summary lines only; there the baseline stance's collapse is the
// demonstration and does not fail the exit code.
//
// Usage:
//
//	alfchaos -scenario blackout              # trunk dark for a third of the run
//	alfchaos -scenario flap -seed 7          # asymmetric forward-path flapping
//	alfchaos -scenario random -duration 10s  # seeded random fault composition
//	alfchaos -all                            # every preset x every policy
//	alfchaos -scenario partition -hold       # down trunk parks packets instead
//	alfchaos -overload                       # congestion, not faults: 3 streams
//	                                         # at 18 Mb/s into an 8 Mb/s trunk,
//	                                         # closed-loop, no-collapse invariants
//	alfchaos -overload -mode fixed           # the open-loop baseline (collapses)
//	alfchaos -overload -all                  # every shape x both stances: the
//	                                         # fixed-vs-closed contrast
//	alfchaos -dtn                            # interplanetary path: 8-min one-way
//	                                         # delay, two 40-min blackouts, custody
//	                                         # relays + model-based rate control
//	alfchaos -dtn -mode aimd                 # the end-to-end baseline (collapses)
//	alfchaos -dtn -all                       # both stances x three seeds: the
//	                                         # end-to-end-vs-custody contrast
//
// Any single run of any family also takes:
//
//	-trace run.json      record spans and write a Perfetto trace; on
//	                     violation, print the trace's summary and the
//	                     culprits' timelines
//	-flightrec box.json  attach the flight recorder: print the incident
//	                     timeline and leave the black-box JSON dump for
//	                     post-mortem
//
// Scenarios: flap, blackout, degrade, partition, random.
// Overload shapes: steady, burst, flash.
// DTN modes: custody, aimd.
package main

import (
	"bytes"
	"cmp"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	alf "repro/internal/core"
	"repro/internal/faults"
	"repro/internal/faults/soak"
	"repro/internal/metrics"
	"repro/internal/telemetry"
	"repro/internal/tracing"
)

var (
	flagScenario = flag.String("scenario", "random", "fault scenario: flap, blackout, degrade, partition, random")
	flagSeed     = flag.Int64("seed", 1, "simulation seed (traffic, impairments, fault schedule)")
	flagDuration = flag.Duration("duration", 3*time.Second, "virtual horizon; faults heal by ~2/3 of it")
	flagADUs     = flag.Int("adus", 60, "ADUs submitted over the first 2/3 of the horizon")
	flagADU      = flag.Int("adu", 3000, "bytes per ADU")
	flagOTP      = flag.Int("otpbytes", 120_000, "OTP stream volume, bytes")
	flagHold     = flag.Bool("hold", false, "down trunk parks packets (HoldOnDown) instead of dropping")
	flagAll      = flag.Bool("all", false, "sweep the family: every scenario x policy, shape x stance, or seed x stance (summary only)")
	flagTree     = flag.Bool("tree", true, "print the unified metric tree after the summary")
	flagTrace    = flag.String("trace", "", "record the run with the span tracer; on violation, dump the violating ADUs' timelines and write Perfetto JSON here")

	flagOverload = flag.Bool("overload", false, "run the congestion overload family instead of a fault scenario")
	flagShape    = flag.String("shape", "steady", "overload arrival pattern: steady, burst, flash")
	flagMode     = flag.String("mode", "", "overload stance (closed/fixed, default closed) or DTN stance (custody/aimd, default custody)")

	flagDTN = flag.Bool("dtn", false, "run the interplanetary DTN family instead of a fault scenario")

	flagFlightRec = flag.String("flightrec", "", "attach the flight recorder to a single run: print the incident timeline and write the black-box JSON dump here (ignored with -all)")

	flagPolicy = alf.SenderBuffered
)

func init() {
	flag.Var(&flagPolicy, "policy", "ALF recovery policy: sender-buffered, app-recompute, no-retransmit")
}

// family is one soak family as alfchaos drives it. What differs
// between the families is data: the variants and stances a sweep
// covers, the stance it expects to fail, the horizon and detectors a
// flight recorder is sized for, and how one run goes and reads.
type family struct {
	name      string   // leads an unknown-stance complaint
	axis      string   // what a variant names ("scenario", "shape"), if any
	variants  []string // the sweep's outer axis; nil for none
	seeds     []int64  // the sweep's seeds; nil sweeps -seed alone
	modes     []string // the stances, in sweep order
	baseline  string   // the stance a sweep expects to break invariants
	horizon   time.Duration
	detectors func() []*telemetry.Detector
	// run executes one run wired into p, prints its summary, and
	// returns its verdict and the ADUs whose accounting broke.
	run func(variant, mode string, seed int64, p soak.Planes) (passed bool, culprits []uint64, err error)
}

// pick returns the family the flags select and its single run's
// variant and stance.
func pick() (f family, variant, mode string) {
	switch {
	case *flagDTN:
		return family{
			name: "dtn", seeds: []int64{1, 2, 3}, modes: soak.DTNModes, baseline: "aimd",
			horizon: soak.DTNHorizon, detectors: soak.DTNDetectors,
			run: func(_, mode string, seed int64, p soak.Planes) (bool, []uint64, error) {
				res, err := soak.RunDTN(soak.DTNConfig{Seed: seed, Mode: mode, Planes: p})
				if err != nil {
					return false, nil, err
				}
				printDTNSummary(res)
				return res.Passed(), nil, nil
			},
		}, "", cmp.Or(*flagMode, "custody")
	case *flagOverload:
		return family{
			name: "overload", axis: "overload shape", variants: soak.OverloadShapes,
			modes: []string{"fixed", "closed"}, baseline: "fixed",
			horizon: *flagDuration, detectors: soak.OverloadDetectors,
			run: func(shape, mode string, seed int64, p soak.Planes) (bool, []uint64, error) {
				res, err := soak.RunOverload(soak.OverloadConfig{
					Seed: seed, Shape: shape, Mode: mode, Duration: *flagDuration, Planes: p,
				})
				if err != nil {
					return false, nil, err
				}
				printOverloadSummary(res)
				return res.Passed(), nil, nil
			},
		}, *flagShape, cmp.Or(*flagMode, "closed")
	}
	return family{
		name: "chaos", axis: "scenario", variants: faults.ScenarioNames,
		modes:   []string{alf.SenderBuffered.String(), alf.AppRecompute.String(), alf.NoRetransmit.String()},
		horizon: *flagDuration, detectors: soak.ChaosDetectors,
		run: func(scenario, mode string, seed int64, p soak.Planes) (bool, []uint64, error) {
			var policy alf.Policy
			if err := policy.Set(mode); err != nil {
				return false, nil, err
			}
			res, err := soak.Run(soak.Config{
				Seed:       seed,
				Scenario:   scenario,
				Duration:   *flagDuration,
				Policy:     policy,
				ADUs:       *flagADUs,
				ADUBytes:   *flagADU,
				OTPBytes:   *flagOTP,
				HoldOnDown: *flagHold,
				Planes:     p,
			})
			if err != nil {
				return false, nil, err
			}
			printSummary(res)
			return res.Passed(), res.ViolatedADUs, nil
		},
	}, *flagScenario, flagPolicy.String()
}

func main() {
	flag.Parse()
	f, variant, mode := pick()
	if *flagAll {
		os.Exit(runAll(f))
	}
	os.Exit(runOne(f, variant, mode, *flagSeed, true))
}

// runOne executes one run of f and prints its report. verbose
// additionally prints the metric tree (if -tree) and attaches the
// flight recorder (if -flightrec).
func runOne(f family, variant, mode string, seed int64, verbose bool) int {
	if f.variants != nil && !slices.Contains(f.variants, variant) {
		fmt.Fprintf(os.Stderr, "alfchaos: unknown %s %q (want %s)\n", f.axis, variant, strings.Join(f.variants, ", "))
		return 2
	}
	if !slices.Contains(f.modes, mode) {
		fmt.Fprintf(os.Stderr, "alfchaos: unknown %s mode %q (want %s)\n", f.name, mode, strings.Join(f.modes, ", "))
		return 2
	}
	p := soak.Planes{Metrics: metrics.New()}
	if *flagTrace != "" {
		p.Tracer = tracing.New(nil) // the soak binds it to the run's clock
		// Soak runs are long; the default event cap could truncate the
		// tail where a violation most likely lives. Runs are bounded by
		// the horizon, so a larger cap is safe.
		p.Tracer.SetLimit(4 << 20)
	}
	if verbose && *flagFlightRec != "" {
		p.Recorder = soak.RecorderFor(f.horizon, f.detectors()...)
	}
	passed, culprits, err := f.run(variant, mode, seed, p)
	if err != nil {
		fmt.Fprintf(os.Stderr, "alfchaos: %v\n", err)
		return 2
	}
	if verbose && *flagTree {
		fmt.Println()
		if err := p.Metrics.Snapshot().WriteText(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "alfchaos: %v\n", err)
			return 2
		}
	}
	if p.Tracer != nil {
		if err := dumpTrace(p.Tracer, passed, culprits); err != nil {
			fmt.Fprintf(os.Stderr, "alfchaos: %v\n", err)
			return 2
		}
	}
	if code := finishFlightRec(p.Recorder); code != 0 {
		return code
	}
	if !passed {
		return 1
	}
	return 0
}

// runAll sweeps f's variants, seeds and stances, summary lines only.
// The exit code ignores the baseline stance's violations — its
// collapse is the demonstration, not a failure of the gate. Any other
// violation still exits 1.
func runAll(f family) int {
	variants, seeds := f.variants, f.seeds
	if variants == nil {
		variants = []string{""}
	}
	if seeds == nil {
		seeds = []int64{*flagSeed}
	}
	exit := 0
	for _, variant := range variants {
		for _, seed := range seeds {
			for _, mode := range f.modes {
				code := runOne(f, variant, mode, seed, false)
				if mode == f.baseline && code == 1 {
					code = 0
				}
				exit = max(exit, code)
				fmt.Println()
			}
		}
	}
	return exit
}

// finishFlightRec prints the incident timeline and writes the
// black-box JSON dump — the same artifact a failing CI soak leaves
// behind, here available on demand for passing runs too.
func finishFlightRec(rec *telemetry.Recorder) int {
	if rec == nil {
		return 0
	}
	fmt.Println()
	if err := rec.WriteIncidents(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "alfchaos: %v\n", err)
		return 2
	}
	if err := rec.WriteDumpFile(*flagFlightRec); err != nil {
		fmt.Fprintf(os.Stderr, "alfchaos: %v\n", err)
		return 2
	}
	fmt.Printf("flight record (%d ticks, %d incidents) written to %s\n",
		rec.Ticks(), len(rec.Incidents()), *flagFlightRec)
	return 0
}

// printSummary renders the invariant report of one run.
func printSummary(res *soak.Result) {
	fmt.Printf("chaos: scenario %s, seed %d, horizon %v, policy %s\n",
		res.Scenario, res.Seed, res.Horizon, res.Policy)
	fmt.Printf("faults: %d down events, %d heals, %d flap cycles, %d blackouts, %d degrades, %d partitions\n",
		res.Faults.DownEvents, res.Faults.Heals, res.Faults.FlapCycles,
		res.Faults.Blackouts, res.Faults.Degrades, res.Faults.Partitions)
	fmt.Printf("trunk: %d packets dropped down, %d parked and replayed\n",
		res.TrunkDownDrops, res.TrunkHeld)
	fmt.Printf("alf: %d/%d ADUs delivered, %d reported lost, %d expired at sender, "+
		"%d resent, %d recomputed, %d unfilled NACKs\n",
		res.Delivered, res.Submitted, res.Lost, res.Expired,
		res.ResentADUs, res.RecomputeADUs, res.UnfilledNacks)
	fmt.Printf("alf: peak retention %d B, peak reassembly %d ADUs\n",
		res.PeakRetention, res.PeakReassembly)
	dead := "alive"
	if res.OTPDead {
		dead = "declared dead"
	}
	fmt.Printf("otp: %d/%d B delivered, %s (%d timeouts, %d retransmits)\n",
		res.OTPDelivered, res.OTPSent, dead, res.OTPTimeouts, res.OTPRetransmits)
	fmt.Printf("drain: quiescent at %v after %d post-horizon events\n",
		res.EndVirtual, res.DrainEvents)

	printInvariants("exactly-once accounting, no corruption, bounded state, clean drain",
		res.Violations, len(res.Violations))
}

// printInvariants prints a family's verdict: the invariants it held,
// or the first maxPrint violations and how many more there are.
func printInvariants(held string, violations []string, maxPrint int) {
	if len(violations) == 0 {
		fmt.Printf("invariants: all held (%s)\n", held)
		return
	}
	fmt.Printf("invariants: %d VIOLATED\n", len(violations))
	for i, v := range violations {
		if i == maxPrint {
			fmt.Printf("  (… %d more)\n", len(violations)-maxPrint)
			break
		}
		fmt.Printf("  ! %s\n", v)
	}
}

// printOverloadSummary renders the no-collapse report of one run.
func printOverloadSummary(res *soak.OverloadResult) {
	fmt.Printf("overload: %s arrivals, %s stance, seed %d, horizon %v\n",
		res.Shape, res.Mode, res.Seed, res.Horizon)
	fmt.Printf("load: %.0f Mb/s offered across %d streams into a %.0f Mb/s trunk\n",
		res.OfferedBps/1e6, len(res.Streams), res.CapacityBps/1e6)
	fmt.Printf("goodput: %.2f Mb/s against a %.2f Mb/s no-collapse floor\n",
		res.GoodputBps/1e6, res.GoodputTarget/1e6)
	fmt.Printf("shed: %d Droppable ADUs refused pre-wire; trunk tail-dropped %d packets\n",
		res.ShedADUs, res.TrunkDrops)
	for _, st := range res.Streams {
		fmt.Printf("stream %d: %d submitted, %d accepted, %d shed, %d delivered, "+
			"%d lost (%d Critical), rate %.2f Mb/s after %d changes, %d retx suppressed\n",
			st.StreamID, st.Submitted, st.Accepted, st.Shed, st.Delivered,
			st.Lost, st.CriticalLost, st.FinalRateBps/1e6, st.RateChanges,
			st.RetxSuppressed)
	}
	fmt.Printf("drain: quiescent at %v after %d post-horizon events\n",
		res.EndVirtual, res.DrainEvents)
	printInvariants("goodput floor, Critical protection, exactly-once, clean drain", res.Violations, 12)
}

// printDTNSummary renders the delay-tolerant report of one run.
func printDTNSummary(res *soak.DTNResult) {
	fmt.Printf("dtn: %s stance, seed %d, horizon %v (8-min one-way path, two 40-min blackouts)\n",
		res.Mode, res.Seed, res.Horizon)
	fmt.Printf("delivered: %d/%d ADUs, %.1f kb/s goodput, %d reported lost (%d Critical)\n",
		res.Delivered, res.Submitted, res.GoodputBps/1e3, res.LostADUs, res.CriticalLost)
	if res.Mode == "custody" {
		fmt.Printf("custody: %d releases at the sender, store peak %d B, %d evicted, "+
			"%d shed, %d ADUs re-originated, %d NACKs answered in one hop\n",
			res.CustodyReleased, res.RelayPeakBytes, res.RelayEvicted,
			res.RelayShed, res.RelayRetxADUs, res.NacksAnswered)
	} else {
		fmt.Printf("end-to-end: %d retention deadlines expired, %d NACKs nobody could fill\n",
			res.DeadlineDrops, res.UnfilledNacks)
	}
	fmt.Printf("drain: quiescent at %v after %d post-horizon events\n",
		res.EndVirtual, res.DrainEvents)
	printInvariants("Critical exactly-once, bounded custody storage, clean drain", res.Violations, 12)
}

// dumpTrace writes the recorded run as Perfetto JSON to the -trace
// path and, when invariants broke, prints the trace's summary and the
// culprit ADUs' reconstructed timelines — the trace of the violating
// window, not just a counter.
func dumpTrace(tracer *tracing.Tracer, passed bool, culprits []uint64) error {
	if !passed {
		rep := tracer.Analyze()
		fmt.Println()
		fmt.Println("trace of the violating window:")
		rep.WriteSummary(os.Stdout)
		const maxDump = 8
		for i, name := range culprits {
			if i == maxDump {
				fmt.Printf("  (… %d more violating ADUs; open the Perfetto trace for the rest)\n",
					len(culprits)-maxDump)
				break
			}
			fmt.Println()
			rep.WriteADU(os.Stdout, 0, name)
		}
	}
	var trace bytes.Buffer
	if err := tracer.WritePerfetto(&trace); err != nil {
		return err
	}
	if err := os.WriteFile(*flagTrace, trace.Bytes(), 0o666); err != nil {
		return err
	}
	fmt.Printf("\nperfetto trace (%d events, %d dropped) written to %s\n",
		tracer.Len(), tracer.Dropped, *flagTrace)
	return nil
}
