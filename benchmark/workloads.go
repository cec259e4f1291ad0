package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	alf "repro/internal/core"
	"repro/internal/experiments"
)

type kind uint8

const (
	kindSim kind = iota
	kindUDP
	kindFlows
)

// spec describes one workload. All six are closed loops: the harness
// keeps window ADUs outstanding and submits the next only when one is
// delivered (flows_sharded_64k paces itself inside RunFlowScale).
type spec struct {
	name     string
	why      string // one line; BENCHMARK.json repeats it
	kind     kind
	suite    alf.CipherSuite
	aduBytes int
	window   int
	loss     float64 // send-side drop probability on the data plane
}

var specs = []spec{
	{
		name: "sim_clear_8k", kind: kindSim, suite: alf.SuiteNone, aduBytes: 8 << 10, window: 1,
		why: "Protocol machinery alone (core packetize/reassemble, buf, sim, netsim): no syscalls, no crypto, 0 allocs; refactors must leave it unmoved.",
	},
	{
		name: "sim_aead_8k", kind: kindSim, suite: alf.SuiteAEAD, aduBytes: 8 << 10, window: 1,
		why: "Same route with ChaCha20-Poly1305: cipher/ilp do most of the work, so kernel and TagKey changes show here and udplink changes must not.",
	},
	{
		name: "udp_clear_256", kind: kindUDP, suite: alf.SuiteNone, aduBytes: 256, window: 64,
		why: "Smallest packets over loopback UDP, one datagram per ADU: per-datagram cost (syscalls, allocs, reader-to-loop hop) is nearly all of it.",
	},
	{
		name: "udp_aead_8k", kind: kindUDP, suite: alf.SuiteAEAD, aduBytes: 8 << 10, window: 8,
		why: "The headline: AEAD over loopback UDP, 9 datagrams per ADU; its goodput over sim_aead_8k's is the ROADMAP's within-2x target.",
	},
	{
		name: "udp_aead_8k_loss2", kind: kindUDP, suite: alf.SuiteAEAD, aduBytes: 8 << 10, window: 8, loss: 0.02,
		why: "udp_aead_8k with 2% of data datagrams dropped: NACK timers and whole-ADU resend set the result while the CPU idles; datapath speed-ups should not move it.",
	},
	{
		name: "flows_sharded_64k", kind: kindFlows, aduBytes: 512,
		why: "65536 flows x 4 ADUs over 4 shards and 2 workers: the only workload where the shard plane, sim.Group, per-flow set-up state and GC matter.",
	},
}

// sliced reports whether a repetition's measured window is cut into
// slices (best.go says which are, and why).
func (sp *spec) sliced() bool { return sp.kind != kindFlows && sp.loss == 0 }

func findSpec(name string) *spec {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i]
		}
	}
	return nil
}

// flowScale is the flows_sharded_64k configuration.
func flowScale(seed uint64) experiments.FlowScaleConfig {
	return experiments.FlowScaleConfig{
		Flows: 65536, Shards: 4, Workers: 2, FlowADUs: 4, ADUBytes: 512, Seed: int64(seed),
	}
}

// runFlows runs RunFlowScale once. Only the whole call is visible from
// outside, so CPU and allocation deltas include its set-up; the wall
// clock splits at FlowScalePoint.WallSec, which RunFlowScale starts
// after the flows are built.
func runFlows(sp *spec, cfg experiments.FlowScaleConfig, traced bool) (rep, error) {
	runtime.GC()
	p := rep{aduBytes: sp.aduBytes}
	epoch := time.Now()
	if traced {
		p.tr = newTracer(epoch)
		p.tr.start(0)
	}
	runtime.ReadMemStats(&p.start.mem)
	p.start.cpu = cpuTime()

	p.tr.begin(spFlowScale, 0)
	pt, err := experiments.RunFlowScale(cfg)
	p.tr.end()

	total := time.Since(epoch)
	p.tr.stop(int64(total))
	p.end.cpu = cpuTime()
	runtime.ReadMemStats(&p.end.mem)
	p.end.at = int64(total)

	want := int64(cfg.Flows) * int64(cfg.FlowADUs)
	p.submitted = want
	p.flow = &pt
	if err != nil {
		// RunFlowScale checks its own delivery count; pass its verdict on.
		p.aborted = err.Error()
		p.failed = want - pt.DeliveredADUs
		if p.failed <= 0 {
			p.failed = want
		}
		return p, nil
	}
	p.adus = pt.DeliveredADUs
	if pt.PayloadBytes != want*int64(sp.aduBytes) {
		p.failed = want
		p.aborted = fmt.Sprintf("delivered %d payload bytes, want %d", pt.PayloadBytes, want*int64(sp.aduBytes))
	}
	p.wallS = pt.WallSec
	p.setupS = total.Seconds() - pt.WallSec
	p.best.rate = ratio(float64(p.adus), p.wallS) // the call is its one slice
	p.ledger = fmt.Sprintf("submitted %d delivered %d (counted by RunFlowScale)", want, pt.DeliveredADUs)
	return p, nil
}

// options are the run parameters shared by all workloads.
type options struct {
	seed    uint64
	reps    int
	repDur  time.Duration
	trace   bool
	onTrace func(traceFile) error // receives each traced repetition's spans, if set
}

// workloadResult is one workload's part of the report.
type workloadResult struct {
	Name     string             `json:"name"`
	Why      string             `json:"why"`
	EndToEnd map[string]summary `json:"end_to_end"`
	// LatencySamples is the smallest per-repetition sample count behind
	// the latency percentiles.
	LatencySamples int `json:"latency_samples"`
	// PerLayer and SelfTimes come from the traced repetition and are
	// absent when tracing is off.
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	SelfTimes []selfTime         `json:"self_times,omitempty"`
	WindowNs  int64              `json:"traced_window_ns,omitempty"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Notes     []string           `json:"notes,omitempty"`
}

// selfTime is one row of the traced repetition's self-time table.
type selfTime struct {
	Span   string `json:"span"`
	Count  int64  `json:"count"`
	SelfNs int64  `json:"self_ns"`
}

// runWorkload runs the untraced repetitions of sp and, if asked, one
// traced repetition. End-to-end numbers come only from the former.
func runWorkload(sp *spec, opt options, ladder map[string]float64) (workloadResult, error) {
	res := workloadResult{Name: sp.name, Why: sp.why, EndToEnd: map[string]summary{}}
	var rec *records
	if sp.kind != kindFlows {
		rec = newRecords(opt.seed, sp)
	}
	once := func(i int, traced bool) (rep, error) {
		seed := opt.seed + uint64(i)
		if sp.kind == kindFlows {
			return runFlows(sp, flowScale(seed), traced)
		}
		return runTransport(sp, seed, opt.repDur, rec, traced)
	}
	note := func(i int, p *rep) {
		res.Attempted += p.submitted
		res.Failed += p.failed
		if p.aborted != "" {
			res.Notes = append(res.Notes, fmt.Sprintf("rep %d aborted: %s (%s)", i, p.aborted, p.ledger))
		}
		if p.undrained != "" {
			res.Notes = append(res.Notes, fmt.Sprintf("rep %d did not drain: %s", i, p.undrained))
		}
		if p.failed != 0 {
			res.Notes = append(res.Notes, fmt.Sprintf("rep %d ledger: %s", i, p.ledger))
		}
		if sp.loss == 0 && p.resentADUs != 0 {
			res.Notes = append(res.Notes, fmt.Sprintf("rep %d INVALID: %d ADUs resent on a lossless workload", i, p.resentADUs))
		}
	}

	// A flows repetition is one whole RunFlowScale call, however long
	// it takes. There -reps does not count them: they go on until they
	// have used the time the other workloads measure for, so that a run
	// takes about as long on a slow host as on a fast one.
	began := time.Now()
	more := func(done int) bool {
		if sp.kind == kindFlows {
			return done == 0 || time.Since(began) < time.Duration(opt.reps)*opt.repDur
		}
		return done < opt.reps
	}
	values := map[string][]float64{} // per metric, one value per untraced repetition
	next := 0                        // the next repetition's index, which offsets its seed
	for ; more(next); next++ {
		p, err := once(next, false)
		if err != nil {
			return res, err
		}
		note(next, &p)
		for name, v := range p.endToEndValues() {
			values[name] = append(values[name], v)
		}
		values["harness.adu_latency_p99_us"] = append(values["harness.adu_latency_p99_us"], p.latP99)
		values["harness.adu_latency_max_us"] = append(values["harness.adu_latency_max_us"], p.latMax)
		if next == 0 || p.latSamples < res.LatencySamples {
			res.LatencySamples = p.latSamples
		}
	}
	for _, def := range endToEnd {
		if vs := values[def.Name]; len(vs) > 0 {
			res.EndToEnd[def.Name] = summarize(def, vs, sp.sliced() && strings.HasPrefix(def.Name, "best_slice_"))
		}
	}
	ff := res.EndToEnd["failed_frac"]
	ff.Value = ratio(float64(res.Failed), float64(res.Attempted))
	res.EndToEnd["failed_frac"] = ff
	if !opt.trace {
		return res, nil
	}

	t, err := once(next, true)
	if err != nil {
		return res, err
	}
	note(next, &t)
	res.addTraced(&t, values, ladder)
	if opt.onTrace != nil {
		err = opt.onTrace(traceFile{Workload: sp.name, Dropped: t.tr.dropped, Spans: t.tr.spans})
	}
	return res, err
}

// addTraced fills in the per-layer part of the result: the traced
// repetition's self times and counters, the ladder, and what the
// untraced repetitions (values) say about the instrument itself.
func (res *workloadResult) addTraced(t *rep, values map[string][]float64, ladder map[string]float64) {
	layers := t.layerValues()
	for name, v := range ladder {
		layers[name] = v
	}
	for _, def := range endToEnd {
		if !def.Gated {
			layers[def.Name] = res.EndToEnd[def.Name].Value // 0 where the workload does not have it
		}
	}
	layers["harness.interference_frac"] = 1 - ratio(res.EndToEnd["adus_per_s"].Value, res.EndToEnd["best_slice_adus_per_s"].Value)
	for _, name := range []string{"harness.adu_latency_p99_us", "harness.adu_latency_max_us"} {
		layers[name] = median(values[name])
	}
	layers["harness.latency_samples"] = float64(res.LatencySamples)
	layers["harness.rep_iqr_frac"] = iqrFrac(values["goodput_MBps"])
	layers["harness.trace_overhead_frac"] = ratio(t.endToEndValues()["cpu_us_per_adu"], res.EndToEnd["cpu_us_per_adu"].Value) - 1
	res.PerLayer = make(map[string]float64, len(perLayer))
	for _, def := range perLayer {
		res.PerLayer[def.Name] = layers[def.Name] // 0 where the layer is not on this workload's path
	}
	for id, a := range t.tr.agg {
		if a.Count > 0 {
			res.SelfTimes = append(res.SelfTimes, selfTime{Span: spanNames[id], Count: a.Count, SelfNs: a.Self})
		}
	}
	res.WindowNs = t.end.at - t.start.at
}
