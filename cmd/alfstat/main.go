// Command alfstat runs a measured transfer scenario and renders the
// full unified metric tree (internal/metrics) as one table: the same
// workload carried by the ALF stack (internal/core) and by the ordered
// TCP-model transport (internal/otp) over identical lossy links, with
// every layer's counters, gauges, and histograms side by side.
//
// This makes the paper's two headline costs directly visible from one
// command:
//
//   - §4 control vs manipulation: the experiments.control_ns /
//     experiments.manipulation_ns gauges (per-packet control work is
//     size-independent; the data pass is cycles per byte), next to the
//     live ilp_pass_bytes counters from the run itself.
//   - §5 head-of-line blocking: otp.hol_stall_ns records how long the
//     in-order stream sat on data behind each gap, while
//     core.recv.adu_latency_ns shows ALF delivering every other ADU on
//     time.
//
// Usage:
//
//	alfstat                      # default scenario, full tree
//	alfstat -loss 5 -adus 500    # heavier loss, more ADUs
//	alfstat -policy no-retransmit -fec 4
//	alfstat -kernels=false       # skip the wall-clock §4 kernels
//	alfstat -ingest run.csv      # fold an `alfbench -csv` run into the tree
//	alfstat -series delivered    # flight-record the run, render matching
//	                             # series as sparkline rate-vs-time strips
//	alfstat -watch 5ms -seriescsv run.csv
//	                             # sample every 5ms of virtual time, write
//	                             # the recorded window as CSV
//
// The soak families' contrasts (fixed-vs-closed overload,
// end-to-end-vs-custody DTN) are alfchaos's: `alfchaos -overload -all`
// and `alfchaos -dtn -all` print them.
//
// Ingested alfbench values are registered as gauges in milli-units
// (value x1000, suffix _milli) because the registry stores integers.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	alf "repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/otp"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/xcode"
)

var (
	flagADUs    = flag.Int("adus", 200, "ADUs to transfer")
	flagADU     = flag.Int("adu", 4096, "bytes per ADU")
	flagLoss    = flag.Float64("loss", 2, "link loss percentage")
	flagRate    = flag.Float64("rate", 20e6, "link rate, bits/s")
	flagDelay   = flag.Duration("delay", 5*time.Millisecond, "one-way propagation delay")
	flagQueue   = flag.Int("queue", 64, "link queue limit, packets (0 = unlimited)")
	flagSeed    = flag.Int64("seed", 1, "simulation seed")
	flagFEC     = flag.Int("fec", 0, "ALF FEC group size (0 = off)")
	flagKey     = flag.Uint64("key", 0, "ALF stream key (0 = no encryption)")
	flagOTP     = flag.Bool("otp", true, "also run the ordered-transport comparison")
	flagKernels = flag.Bool("kernels", true, "measure the wall-clock §4 kernels (control vs manipulation)")
	flagQuick   = flag.Bool("quick", false, "shorter kernel timing budgets")
	flagIngest  = flag.String("ingest", "", "CSV file from `alfbench -csv` to fold into the tree (\"-\" = stdin)")
	flagOutage  = flag.Duration("outage", 0, "black out every data link for this long, 100ms into the run (0 = none)")

	flagSeries    = flag.String("series", "", "attach the flight recorder and render matching series as sparkline timelines (substring match, \"all\" = everything)")
	flagWatch     = flag.Duration("watch", 0, "flight-recorder sampling interval in virtual time (default 10ms; implies recording)")
	flagSeriesCSV = flag.String("seriescsv", "", "write the recorded series window as CSV here (\"-\" = stdout; implies recording)")

	flagPolicy = alf.SenderBuffered
)

func init() {
	flag.Var(&flagPolicy, "policy", "ALF recovery policy: sender-buffered, app-recompute, no-retransmit")
}

func main() {
	flag.Parse()
	reg := metrics.New()

	if *flagIngest != "" {
		if err := ingest(reg, *flagIngest); err != nil {
			fmt.Fprintf(os.Stderr, "alfstat: ingest: %v\n", err)
			os.Exit(1)
		}
	}

	// The flight recorder samples the scenario's registry on the
	// virtual clock, turning the end-of-run counter tree into
	// rate-over-time series. Any of the three flags opts in.
	var rec *telemetry.Recorder
	if *flagSeries != "" || *flagSeriesCSV != "" || *flagWatch > 0 {
		iv := *flagWatch
		if iv <= 0 {
			iv = 10 * time.Millisecond
		}
		rec = telemetry.New(telemetry.Config{
			Interval:  iv,
			Detectors: telemetry.DefaultDetectors(0, 0, int64(*flagQueue), 0),
		})
	}

	summary, err := runScenario(reg, rec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "alfstat: %v\n", err)
		os.Exit(1)
	}

	if *flagKernels {
		minTime := 100 * time.Millisecond
		if *flagQuick {
			minTime = 20 * time.Millisecond
		}
		experiments.RunControlInto(reg, 64, minTime/4)
		experiments.RunControlInto(reg, 4096, minTime/4)
		experiments.RunPipelineInto(reg, 64<<10, minTime/4)
	}

	fmt.Print(summary)
	if *flagSeries != "" {
		fmt.Println()
		if err := rec.WriteSparklines(os.Stdout, *flagSeries, 60); err != nil {
			fmt.Fprintf(os.Stderr, "alfstat: %v\n", err)
			os.Exit(1)
		}
	}
	if *flagSeriesCSV != "" {
		out := os.Stdout
		if *flagSeriesCSV != "-" {
			f, err := os.Create(*flagSeriesCSV)
			if err != nil {
				fmt.Fprintf(os.Stderr, "alfstat: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			out = f
		}
		if err := rec.WriteCSV(out); err != nil {
			fmt.Fprintf(os.Stderr, "alfstat: %v\n", err)
			os.Exit(1)
		}
	}
	fmt.Println()
	if err := reg.Snapshot().WriteText(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "alfstat: %v\n", err)
		os.Exit(1)
	}
}

// runScenario drives the measured transfer and returns a short text
// summary; all metrics land in reg, and rec (optional) samples them on
// the virtual clock as the run progresses.
func runScenario(reg *metrics.Registry, rec *telemetry.Recorder) (string, error) {
	sched := sim.NewScheduler()
	rec.Bind(sched, reg, sim.Time(0).Add(5*time.Minute))
	net := netsim.New(sched, *flagSeed)
	net.SetMetrics(reg)
	link := netsim.LinkConfig{
		RateBps:    *flagRate,
		Delay:      *flagDelay,
		QueueLimit: *flagQueue,
		LossProb:   *flagLoss / 100,
	}
	total := int64(*flagADUs) * int64(*flagADU)

	// The ALF path: out-of-order ADU delivery over a lossy duplex link.
	alfA, alfB := net.NewNode("alf-src"), net.NewNode("alf-dst")
	ab, ba := net.NewDuplex(alfA, alfB, link)
	cfg := alf.Config{
		StreamID: 1,
		Policy:   flagPolicy,
		FECGroup: *flagFEC,
		Key:      *flagKey,
		RateBps:  *flagRate * 0.95, // pace just under the wire
		Metrics:  reg,
	}
	if *flagKey != 0 {
		cfg.Suite = alf.SuiteScramble
	}
	snd, rcv, err := alf.Connect(sched, alfA, alfB, ab, ba, cfg)
	if err != nil {
		return "", err
	}
	var alfBytes int64
	var alfDone sim.Time
	rcv.OnADU = func(a alf.ADU) {
		alfBytes += int64(len(a.Data))
		alfDone = sched.Now()
	}
	var alfLost int
	rcv.OnLost = func(uint64) { alfLost++ }
	// AppRecompute regenerates the deterministic payload on demand.
	snd.OnResend = func(name uint64) (uint64, xcode.SyntaxID, []byte, bool) {
		return name, xcode.SyntaxRaw, aduPayload(int(name), *flagADU), true
	}
	for i := 0; i < *flagADUs; i++ {
		if _, err := snd.Send(uint64(i), xcode.SyntaxRaw, aduPayload(i, *flagADU)); err != nil {
			return "", err
		}
	}

	// The comparison path: the same bytes as one ordered stream over an
	// identical link pair.
	var conn *otp.Conn
	var otpBytes int64
	var otpDone sim.Time
	if *flagOTP {
		otpA, otpB := net.NewNode("otp-src"), net.NewNode("otp-dst")
		oab, oba := net.NewDuplex(otpA, otpB, link)
		ocfg := otp.Config{
			ConnID: 1, FastRetransmit: true, SendBuffer: int(total) + 1,
			Metrics: reg, MetricsLabels: []string{"role=snd"},
		}
		var peer *otp.Conn
		conn, peer = otp.Connect(sched, otpA, otpB, oab, oba, ocfg, otp.Config{
			ConnID: 1, FastRetransmit: true,
			Metrics: reg, MetricsLabels: []string{"role=rcv"},
		})
		peer.OnData = func(p []byte) {
			otpBytes += int64(len(p))
			otpDone = sched.Now()
		}
		if err := conn.Send(make([]byte, total)); err != nil {
			return "", err
		}
	}

	// An optional blackout over every link in the scenario: the summary
	// and the netsim.link.down_drops series then separate outage losses
	// from queue drops and line losses.
	if *flagOutage > 0 {
		inj := faults.New(sched, *flagSeed)
		inj.Blackout(net.Links(), 100*time.Millisecond, *flagOutage)
	}

	if err := sched.RunUntil(sim.Time(0).Add(5 * time.Minute)); err != nil {
		return "", err
	}
	rec.Sample() // final state, even if the run drained between ticks

	// Goodput gauges, from delivered bytes over each path's own
	// completion time (virtual clock, so deterministic per seed).
	goodput := func(path string, bytes int64, at sim.Time) {
		var kbps int64
		if at > 0 {
			kbps = int64(float64(bytes) * 8 / 1e3 / at.Seconds())
		}
		reg.GaugeFunc("alfstat.goodput_kbps", func() int64 { return kbps }, "path="+path)
	}
	goodput("alf", alfBytes, alfDone)
	if *flagOTP {
		goodput("otp", otpBytes, otpDone)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "scenario: %d ADUs x %d B, loss %.3g%%, rate %.3g Mb/s, delay %v, policy %s, fec %d, seed %d\n",
		*flagADUs, *flagADU, *flagLoss, *flagRate/1e6, *flagDelay, flagPolicy, *flagFEC, *flagSeed)
	fmt.Fprintf(&b, "alf: delivered %d/%d ADUs (%d B, %d lost) in %v\n",
		rcv.Stats.ADUsDelivered, *flagADUs, alfBytes, alfLost, alfDone)
	if *flagOTP {
		fmt.Fprintf(&b, "otp: delivered %d/%d B in %v\n", otpBytes, total, otpDone)
	}
	// Per-cause loss budget across every link: outage drops are a
	// different failure than congestion or line noise.
	var downDrops, queueDrops, lineLosses int64
	for _, l := range net.Links() {
		downDrops += l.Stats.DownDrops
		queueDrops += l.Stats.QueueDrops
		lineLosses += l.Stats.LineLosses
	}
	fmt.Fprintf(&b, "drops: %d down-link, %d queue, %d line\n",
		downDrops, queueDrops, lineLosses)
	return b.String(), nil
}

// aduPayload builds the deterministic payload of ADU i.
func aduPayload(i, n int) []byte {
	p := make([]byte, n)
	for j := range p {
		p[j] = byte(i*31 + j)
	}
	return p
}

// ingest folds an `alfbench -csv` run into the registry: every numeric
// cell of every table becomes a gauge
// alfbench.<section>.<column>_milli{row=<first cell>} holding the
// value x1000.
func ingest(reg *metrics.Registry, path string) error {
	f := os.Stdin
	if path != "-" {
		var err error
		if f, err = os.Open(path); err != nil {
			return err
		}
		defer f.Close()
	}
	var section string
	var header []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
		case strings.HasPrefix(line, "# "):
			// "# E2: copy+checksum — ..." -> section "e2"
			title := strings.TrimPrefix(line, "# ")
			section = slug(strings.SplitN(title, ":", 2)[0])
			header = nil
		default:
			cells := strings.Split(line, ",")
			if header == nil {
				header = cells
				continue
			}
			if section == "" || len(cells) == 0 {
				continue
			}
			row := "row=" + slug(cells[0])
			for i := 1; i < len(cells) && i < len(header); i++ {
				v, err := strconv.ParseFloat(strings.TrimSpace(cells[i]), 64)
				if err != nil {
					continue
				}
				name := fmt.Sprintf("alfbench.%s.%s_milli", section, slug(header[i]))
				milli := int64(v * 1000)
				reg.GaugeFunc(name, func() int64 { return milli }, row)
			}
		}
	}
	return sc.Err()
}

// slug lowercases and strips a string down to [a-z0-9_.-].
func slug(s string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(strings.TrimSpace(s)) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '.', r == '-', r == '_':
			b.WriteRune(r)
		case r == ' ' || r == '/':
			b.WriteRune('_')
		}
	}
	return b.String()
}
