// Command benchmark is the repository's benchmark: six closed-loop
// workloads driven through the public API of each layer, nine
// end-to-end metrics over whole measured windows and four over the best
// slice (best.go), all with tracing off, and a separate traced
// repetition plus a kernel-to-link ladder for the per-layer numbers.
// README.md in this directory is the glossary; BENCHMARK.json at the
// repository root is the machine-readable contract.
//
//	go run ./benchmark                          every workload, every metric
//	go run ./benchmark -workloads udp_aead_8k   a subset
//	go run ./benchmark -json a.json             also write the full report
//	go run ./benchmark -compare a.json b.json   judge run b against run a
//	go run ./benchmark -compare a1.json,a2.json b1.json,b2.json
//	                                            the same, each side's runs pooled
//
// With -workload (singular) it runs one workload and ends its output
// with one JSON line: the end-to-end metrics BENCHMARK.json gates with
// -trace 0, the per-layer metrics with -trace 1.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// ladderRung is how long each ladder rung is timed.
const ladderRung = 300 * time.Millisecond

// env records the host, so that a result that depends on it (a window
// that overflows a smaller socket buffer, a worker count above nproc)
// can be diagnosed from the report alone.
type env struct {
	NProc       int    `json:"nproc"`
	GOMAXPROCS  int    `json:"GOMAXPROCS"`
	GoVersion   string `json:"go_version"`
	Kernel      string `json:"kernel"`
	RmemDefault string `json:"rmem_default"`
	Link        string `json:"link"` // always "loopback": no traffic leaves the host
}

func readEnv() env {
	file := func(path string) string {
		b, err := os.ReadFile(path)
		if err != nil {
			return "unknown"
		}
		return strings.TrimSpace(string(b))
	}
	return env{
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		Kernel:      runtime.GOOS + " " + file("/proc/sys/kernel/osrelease"),
		RmemDefault: file("/proc/sys/net/core/rmem_default"),
		Link:        "loopback",
	}
}

// report is the full output, as written by -json and read by -compare.
type report struct {
	Env        env                `json:"env"`
	Seed       uint64             `json:"seed"`
	Reps       int                `json:"reps"`
	RepSeconds float64            `json:"rep_seconds"`
	Traced     bool               `json:"traced"`
	Workloads  []workloadResult   `json:"workloads"`
	Ladder     map[string]float64 `json:"ladder,omitempty"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its inputs and outputs as parameters. It returns
// the exit status: 0 only if every delivered ADU on every workload was
// the right one, delivered once.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		one        = fs.String("workload", "", "run this one workload and end the output with one JSON result line")
		list       = fs.String("workloads", "", "comma-separated workloads to run (default: all six)")
		seed       = fs.Uint64("seed", 1, "seeds payload bytes, the LossyConn drop stream and the flow-scale run")
		reps       = fs.Int("reps", 5, "untraced repetitions per workload; medians and quartiles are over these")
		repSeconds = fs.Float64("rep-seconds", 3, "measured window of one repetition, in seconds")
		seconds    = fs.Float64("seconds", 0, "measured time per workload, as the benchmark driver gives it; if set, rep-seconds = seconds / reps")
		trace      = fs.Int("trace", 1, "1: add a traced repetition and the ladder (per-layer metrics); 0: end-to-end only")
		traceOut   = fs.String("trace-out", "", "write the traced repetitions' spans to this file, one JSON object per workload")
		jsonOut    = fs.String("json", "", "write the full report to this file")
		compare    = fs.Bool("compare", false, "judge side b against side a, pooling each side's runs: benchmark -compare a.json[,a2.json...] b.json[,b2.json...]")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare a.json[,a2.json...] b.json[,b2.json...]")
			return 2
		}
		return runCompare(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || *reps < 1 || (*trace != 0 && *trace != 1) || (*one != "" && *list != "") {
		fmt.Fprintln(stderr, "benchmark: unexpected arguments; see -h")
		return 2
	}
	if *seconds > 0 {
		*repSeconds = *seconds / float64(*reps)
	}
	if *repSeconds <= 0 {
		fmt.Fprintln(stderr, "benchmark: the measured window must be positive")
		return 2
	}

	names := *list
	if *one != "" {
		names = *one
	}
	var chosen []*spec
	if names == "" {
		for i := range specs {
			chosen = append(chosen, &specs[i])
		}
	} else {
		for _, name := range strings.Split(names, ",") {
			sp := findSpec(name)
			if sp == nil {
				fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", name)
				return 2
			}
			chosen = append(chosen, sp)
		}
	}

	opt := options{seed: *seed, reps: *reps, repDur: time.Duration(*repSeconds * float64(time.Second)), trace: *trace == 1}
	if *traceOut != "" && opt.trace {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		enc := json.NewEncoder(f)
		opt.onTrace = func(t traceFile) error { return enc.Encode(t) }
		defer func() {
			if err := f.Close(); err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
			}
		}()
	}

	rp := report{Env: readEnv(), Seed: *seed, Reps: *reps, RepSeconds: *repSeconds, Traced: opt.trace}
	fmt.Fprintf(stdout, "alf benchmark: seed %d, %d reps x %.3gs per workload, tracing %v\n", rp.Seed, rp.Reps, rp.RepSeconds, opt.trace)
	fmt.Fprintf(stdout, "env: nproc=%d GOMAXPROCS=%d %s %s rmem_default=%s link=%s (all UDP traffic crosses the host loopback only)\n",
		rp.Env.NProc, rp.Env.GOMAXPROCS, rp.Env.GoVersion, rp.Env.Kernel, rp.Env.RmemDefault, rp.Env.Link)

	if opt.trace {
		rung := ladderRung
		if opt.repDur < rung {
			rung = opt.repDur
		}
		var err error
		if rp.Ladder, err = runLadder(rung); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	status := 0
	for _, sp := range chosen {
		res, err := runWorkload(sp, opt, rp.Ladder)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", sp.name, err)
			return 1
		}
		printWorkload(stdout, &res, rp.Ladder)
		if res.Failed != 0 {
			status = 1
		}
		rp.Workloads = append(rp.Workloads, res)
	}
	if rp.Ladder != nil {
		fmt.Fprintf(stdout, "\n== ladder: each rung alone, %v per rung ==\n", ladderRung)
		printValues(stdout, rp.Ladder, nil)
	}
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, &rp); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if *one != "" {
		line, ok := resultLine(&rp.Workloads[0], opt.trace)
		if !ok {
			status = 1
		}
		fmt.Fprintln(stdout, line)
	}
	return status
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// resultLine is the one-line JSON result of a -workload run: the
// gated end-to-end metrics with tracing off, the per-layer metrics
// with it on. ok is false if anything failed or a value is not a
// number.
func resultLine(res *workloadResult, traced bool) (line string, ok bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]value{}}
	ok = res.Failed == 0 && res.Attempted > 0
	add := func(name, unit string, v float64) {
		if !finite(v) {
			v, ok = 0, false
		}
		out.Metrics[name] = value{v, unit}
	}
	if traced {
		for _, def := range perLayer {
			add(def.Name, def.Unit, res.PerLayer[def.Name])
		}
	} else {
		for _, def := range endToEnd {
			s, measured := res.EndToEnd[def.Name]
			switch {
			case !def.Gated: // listed under per_layer
			case measured:
				add(def.Name, def.Unit, s.Value)
			default:
				// flows_sharded_64k has no ADU latency, and the driver takes
				// every end-to-end metric from every workload, never null or
				// zero. What stands in here is the wall time per delivered
				// ADU; the report and -compare leave the metric out.
				add(def.Name, def.Unit, ratio(1e6, res.EndToEnd["best_slice_adus_per_s"].Value))
			}
		}
	}
	out.Correct = ok
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	_ = enc.Encode(out) // only finite numbers and strings: cannot fail
	return strings.TrimSpace(b.String()), ok
}

func printWorkload(w io.Writer, res *workloadResult, ladder map[string]float64) {
	fmt.Fprintf(w, "\n== %s ==\n%s\n", res.Name, res.Why)
	fmt.Fprintf(w, "end to end, tracing off: median [q1 .. q3] over %d reps, of each rep's whole measured window or (best_slice_*) its best slice\n", len(res.EndToEnd["goodput_MBps"].Reps))
	for _, def := range endToEnd {
		if s, measured := res.EndToEnd[def.Name]; measured {
			fmt.Fprintf(w, "  %-34s %14.6g %-5s [%.6g .. %.6g]\n", def.Name, s.Value, def.Unit, s.Q1, s.Q3)
		} else {
			fmt.Fprintf(w, "  %-34s %14s %-5s (Send and OnADU are not visible from outside this workload)\n", def.Name, "null", def.Unit)
		}
	}
	fmt.Fprintf(w, "  latency samples per rep: at least %d; ADUs attempted %d, failed %d\n", res.LatencySamples, res.Attempted, res.Failed)
	for _, n := range res.Notes {
		fmt.Fprintf(w, "  NOTE %s\n", n)
	}
	if res.PerLayer == nil {
		return
	}
	fmt.Fprintf(w, "per layer, one traced repetition: span self times, which sum to the measured window\n")
	var sum int64
	for _, st := range res.SelfTimes {
		fmt.Fprintf(w, "  %-34s %14d ns    in %d spans\n", st.Span+" self", st.SelfNs, st.Count)
		sum += st.SelfNs
	}
	fmt.Fprintf(w, "  %-34s %14d ns    window %d ns\n", "sum", sum, res.WindowNs)
	printValues(w, res.PerLayer, ladder) // the ladder is the same for every workload and printed once, at the end
}

// printValues prints the per-layer metrics in m by name, with their
// units, leaving out those in skip.
func printValues(w io.Writer, m, skip map[string]float64) {
	names := make([]string, 0, len(m))
	for name := range m {
		if _, ok := skip[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	units := map[string]string{}
	for _, def := range perLayer {
		units[def.Name] = def.Unit
	}
	for _, name := range names {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", name, m[name], units[name])
	}
}
