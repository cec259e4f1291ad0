// Command alfchaos runs a named fault-injection scenario
// (internal/faults) against the ALF stack and the ordered-transport
// baseline sharing one simulated topology (internal/faults/soak), then
// prints the invariant summary and the full unified metric tree.
//
// The run is deterministic: (scenario, seed, duration, policy) fully
// determine the traffic, the fault schedule, and every loss. A clean
// run exits 0; any invariant violation is printed and exits 1, so the
// command doubles as a scriptable chaos gate.
//
// Usage:
//
//	alfchaos -scenario blackout              # trunk dark for a third of the run
//	alfchaos -scenario flap -seed 7          # asymmetric forward-path flapping
//	alfchaos -scenario random -duration 10s  # seeded random fault composition
//	alfchaos -all                            # every preset x every policy
//	alfchaos -scenario partition -hold       # down trunk parks packets instead
//	alfchaos -trace chaos.json               # record spans; on violation,
//	                                         # dump the culprits' timelines
//	                                         # and write a Perfetto trace
//	alfchaos -overload                       # congestion, not faults: 3 streams
//	                                         # at 18 Mb/s into an 8 Mb/s trunk,
//	                                         # closed-loop, no-collapse invariants
//	alfchaos -overload -mode fixed           # the open-loop baseline (collapses)
//	alfchaos -overload -all                  # every shape x both stances
//	alfchaos -dtn                            # interplanetary path: 8-min one-way
//	                                         # delay, two 40-min blackouts, custody
//	                                         # relays + model-based rate control
//	alfchaos -dtn -mode aimd                 # the end-to-end baseline (collapses)
//	alfchaos -dtn -all                       # both stances x three seeds
//	alfchaos -dtn -mode aimd -flightrec box.json
//	                                         # attach the flight recorder: print
//	                                         # the incident timeline and leave the
//	                                         # black-box JSON dump for post-mortem
//
// Scenarios: flap, blackout, degrade, partition, random.
// Overload shapes: steady, burst, flash.
// DTN modes: custody, aimd.
package main

import (
	"flag"
	"fmt"
	"os"
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
	flagAll      = flag.Bool("all", false, "run every scenario x policy combination (summary only)")
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

// attachFlightRec builds the recorder for one single-run invocation,
// or nil when -flightrec is unset — the nil recorder costs nothing.
func attachFlightRec(horizon time.Duration, dets []telemetry.Detector) *telemetry.Recorder {
	if *flagFlightRec == "" {
		return nil
	}
	return soak.RecorderFor(horizon, dets...)
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

func main() {
	flag.Parse()
	if *flagDTN {
		if *flagAll {
			os.Exit(runDTNAll())
		}
		mode := *flagMode
		if mode == "" {
			mode = "custody"
		}
		os.Exit(runDTN(mode, *flagSeed, true))
	}
	if *flagOverload {
		mode := *flagMode
		if mode == "" {
			mode = "closed"
		}
		if *flagAll {
			os.Exit(runOverloadAll())
		}
		os.Exit(runOverload(*flagShape, mode, true))
	}
	if *flagAll {
		os.Exit(runAll())
	}
	os.Exit(runOne(*flagScenario, flagPolicy, true))
}

// runOne executes a single scenario and prints its report. verbose
// additionally prints the metric tree (if -tree).
func runOne(scenario string, policy alf.Policy, verbose bool) int {
	reg := metrics.New()
	var tracer *tracing.Tracer
	if *flagTrace != "" {
		tracer = tracing.New(nil) // soak.Run binds it to the run's clock
		// Chaos runs are long; the default event cap could truncate the
		// tail where a violation most likely lives. Runs are bounded by
		// the horizon, so a larger cap is safe.
		tracer.SetLimit(4 << 20)
	}
	var rec *telemetry.Recorder
	if verbose {
		rec = attachFlightRec(*flagDuration, soak.ChaosDetectors())
	}
	res, err := soak.Run(soak.Config{
		Seed:       *flagSeed,
		Scenario:   scenario,
		Duration:   *flagDuration,
		Policy:     policy,
		ADUs:       *flagADUs,
		ADUBytes:   *flagADU,
		OTPBytes:   *flagOTP,
		HoldOnDown: *flagHold,
		Metrics:    reg,
		Tracer:     tracer,
		Recorder:   rec,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "alfchaos: %v\n", err)
		return 2
	}

	printSummary(res)
	if verbose && *flagTree {
		fmt.Println()
		if err := reg.Snapshot().WriteText(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "alfchaos: %v\n", err)
			return 2
		}
	}
	if tracer != nil {
		if err := dumpTrace(tracer, res); err != nil {
			fmt.Fprintf(os.Stderr, "alfchaos: %v\n", err)
			return 2
		}
	}
	if code := finishFlightRec(rec); code != 0 {
		return code
	}
	if !res.Passed() {
		return 1
	}
	return 0
}

// runOverload executes one overload scenario (congestion, not faults)
// and prints its no-collapse report. verbose additionally prints the
// metric tree (if -tree).
func runOverload(shape, mode string, verbose bool) int {
	ok := false
	for _, s := range soak.OverloadShapes {
		if s == shape {
			ok = true
		}
	}
	if !ok {
		fmt.Fprintf(os.Stderr, "alfchaos: unknown overload shape %q (want steady, burst, flash)\n", shape)
		return 2
	}
	if mode != "closed" && mode != "fixed" {
		fmt.Fprintf(os.Stderr, "alfchaos: unknown overload mode %q (want closed or fixed)\n", mode)
		return 2
	}
	reg := metrics.New()
	var tracer *tracing.Tracer
	if *flagTrace != "" {
		tracer = tracing.New(nil)
		tracer.SetLimit(4 << 20)
	}
	var rec *telemetry.Recorder
	if verbose {
		rec = attachFlightRec(*flagDuration, soak.OverloadDetectors())
	}
	res, err := soak.RunOverload(soak.OverloadConfig{
		Seed:     *flagSeed,
		Shape:    shape,
		Mode:     mode,
		Duration: *flagDuration,
		Metrics:  reg,
		Tracer:   tracer,
		Recorder: rec,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "alfchaos: %v\n", err)
		return 2
	}

	printOverloadSummary(res)
	if verbose && *flagTree {
		fmt.Println()
		if err := reg.Snapshot().WriteText(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "alfchaos: %v\n", err)
			return 2
		}
	}
	if tracer != nil {
		if err := writePerfetto(tracer); err != nil {
			fmt.Fprintf(os.Stderr, "alfchaos: %v\n", err)
			return 2
		}
	}
	if code := finishFlightRec(rec); code != 0 {
		return code
	}
	if !res.Passed() {
		return 1
	}
	return 0
}

// runOverloadAll sweeps every arrival shape under both sender stances,
// summary lines only. The exit code ignores the expected fixed-stance
// violations — open-loop collapse is the demonstration, not a failure
// of the gate. A closed-loop violation still exits 1.
func runOverloadAll() int {
	exit := 0
	for _, shape := range soak.OverloadShapes {
		for _, mode := range []string{"fixed", "closed"} {
			code := runOverload(shape, mode, false)
			if mode == "fixed" && code == 1 {
				code = 0
			}
			if code > exit {
				exit = code
			}
			fmt.Println()
		}
	}
	return exit
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

// runDTN executes one DTN scenario (interplanetary delay, conjunction
// blackouts) and prints its delay-tolerant invariant report. verbose
// additionally prints the metric tree (if -tree).
func runDTN(mode string, seed int64, verbose bool) int {
	ok := false
	for _, m := range soak.DTNModes {
		if m == mode {
			ok = true
		}
	}
	if !ok {
		fmt.Fprintf(os.Stderr, "alfchaos: unknown dtn mode %q (want custody or aimd)\n", mode)
		return 2
	}
	reg := metrics.New()
	var rec *telemetry.Recorder
	if verbose {
		rec = attachFlightRec(4*time.Hour, soak.DTNDetectors())
	}
	res, err := soak.RunDTN(soak.DTNConfig{Seed: seed, Mode: mode, Metrics: reg, Recorder: rec})
	if err != nil {
		fmt.Fprintf(os.Stderr, "alfchaos: %v\n", err)
		return 2
	}
	printDTNSummary(res)
	if verbose && *flagTree {
		fmt.Println()
		if err := reg.Snapshot().WriteText(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "alfchaos: %v\n", err)
			return 2
		}
	}
	if code := finishFlightRec(rec); code != 0 {
		return code
	}
	if !res.Passed() {
		return 1
	}
	return 0
}

// runDTNAll sweeps both stances over three seeds, summary lines only.
// The exit code ignores the expected aimd violations — end-to-end
// collapse at interplanetary delay is the demonstration, not a failure
// of the gate. A custody violation still exits 1.
func runDTNAll() int {
	exit := 0
	for seed := int64(1); seed <= 3; seed++ {
		for _, mode := range soak.DTNModes {
			res, err := soak.RunDTN(soak.DTNConfig{Seed: seed, Mode: mode})
			if err != nil {
				fmt.Fprintf(os.Stderr, "alfchaos: %v\n", err)
				return 2
			}
			printDTNSummary(res)
			fmt.Println()
			if mode == "custody" && !res.Passed() && exit < 1 {
				exit = 1
			}
		}
	}
	return exit
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

// runAll sweeps every preset against every policy, summary lines only.
func runAll() int {
	exit := 0
	for _, scenario := range faults.ScenarioNames {
		for _, policy := range []alf.Policy{alf.SenderBuffered, alf.AppRecompute, alf.NoRetransmit} {
			if code := runOne(scenario, policy, false); code > exit {
				exit = code
			}
			fmt.Println()
		}
	}
	return exit
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

// dumpTrace writes the recorded run as Perfetto JSON and, when
// invariants broke, prints the violating ADUs' reconstructed
// timelines — the trace of the violating window, not just a counter.
func dumpTrace(tracer *tracing.Tracer, res *soak.Result) error {
	rep := tracer.Analyze()
	if !res.Passed() {
		fmt.Println()
		fmt.Println("trace of the violating window:")
		rep.WriteSummary(os.Stdout)
		const maxDump = 8
		for i, name := range res.ViolatedADUs {
			if i == maxDump {
				fmt.Printf("  (… %d more violating ADUs; open the Perfetto trace for the rest)\n",
					len(res.ViolatedADUs)-maxDump)
				break
			}
			fmt.Println()
			rep.WriteADU(os.Stdout, 0, name)
		}
	}
	return writePerfetto(tracer)
}

// writePerfetto writes the recorded run as Perfetto JSON to the -trace
// path and says so.
func writePerfetto(tracer *tracing.Tracer) error {
	f, err := os.Create(*flagTrace)
	if err != nil {
		return err
	}
	if err := tracer.WritePerfetto(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("\nperfetto trace (%d events, %d dropped) written to %s\n",
		tracer.Len(), tracer.Dropped, *flagTrace)
	return nil
}
