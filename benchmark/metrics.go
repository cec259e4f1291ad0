package main

import (
	"math"
	"slices"

	"repro/internal/experiments"
)

// metricDef names one metric. Later issues cite these names verbatim.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Rel and Abs give the regression bound of an end-to-end metric: it
	// may worsen by max(Rel x parent median, Abs). Abs is a floor for
	// metrics whose median is near zero, where a share of it means
	// nothing. Both are zero for failed_frac, where any rise is a
	// regression, and for per-layer metrics, which have no bound.
	Rel, Abs float64
	// Gated marks the end-to-end metrics BENCHMARK.json lists under
	// end_to_end, which the benchmark driver holds later changes to. The
	// driver takes there only metrics that are never zero and that spread
	// from run to run by no more than their bound; the others it lists
	// under per_layer, without a bound. -compare bounds them all.
	Gated bool
}

// endToEnd are the metrics a user of the transport sees, measured with
// tracing off.
//
// The first nine are ISSUE 13's, with its bounds: a repetition's value
// is that of its whole measured window. Three of them are zero on a
// healthy run of some workload (the sim datapath allocates nothing, and
// nothing may fail), and the rates, costs and latencies spread on a
// shared host by more than any bound the driver allows (best.go has the
// numbers), so of these only setup_s is gated, at the driver's widest
// bound. The best_slice_* metrics are what repeats and are gated in
// their place; their 25% is set by flows_sharded_64k, which cannot be
// sliced, because a metric has one bound for all workloads.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Rel: 0.25, Abs: 0.05, Gated: true},
	{Name: "goodput_MBps", Unit: "MB/s", Better: "higher", Rel: 0.10},
	{Name: "adus_per_s", Unit: "1/s", Better: "higher", Rel: 0.10},
	{Name: "cpu_us_per_adu", Unit: "us", Better: "lower", Rel: 0.10},
	{Name: "allocs_per_adu", Unit: "1", Better: "lower", Rel: 0.02, Abs: 0.5},
	{Name: "alloc_bytes_per_adu", Unit: "B", Better: "lower", Rel: 0.02, Abs: 64},
	{Name: "adu_latency_p50_us", Unit: "us", Better: "lower", Rel: 0.10},
	{Name: "adu_latency_p90_us", Unit: "us", Better: "lower", Rel: 0.15},
	{Name: "failed_frac", Unit: "1", Better: "lower"},

	{Name: "best_slice_goodput_MBps", Unit: "MB/s", Better: "higher", Rel: 0.25, Gated: true},
	{Name: "best_slice_adus_per_s", Unit: "1/s", Better: "higher", Rel: 0.25, Gated: true},
	{Name: "best_slice_latency_p50_us", Unit: "us", Better: "lower", Rel: 0.25, Gated: true},
	{Name: "best_slice_latency_p90_us", Unit: "us", Better: "lower", Rel: 0.25, Gated: true},
}

// perLayer are the metrics of single layers, from the traced
// repetition, the public counters and the ladder. README.md says which
// end-to-end metric each should move, and on which workload.
var perLayer = []metricDef{
	// Self times of the span tree; with harness.self_ns_per_adu they
	// sum to harness.window_ns_per_adu.
	{Name: "app.submit_self_ns_per_adu", Unit: "ns", Better: "lower"},
	{Name: "core.send_self_ns_per_adu", Unit: "ns", Better: "lower"},
	{Name: "link.enqueue_self_ns_per_adu", Unit: "ns", Better: "lower"},
	{Name: "loop.self_ns_per_adu", Unit: "ns", Better: "lower"},
	{Name: "udplink.write_self_ns_per_adu", Unit: "ns", Better: "lower"},
	{Name: "core.recv_self_ns_per_adu", Unit: "ns", Better: "lower"},
	{Name: "app.deliver_self_ns_per_adu", Unit: "ns", Better: "lower"},
	{Name: "core.control_ns_per_adu", Unit: "ns", Better: "lower"},
	{Name: "harness.self_ns_per_adu", Unit: "ns", Better: "lower"},
	{Name: "harness.window_ns_per_adu", Unit: "ns", Better: "lower"},

	// core, from SenderStats and ReceiverStats.
	{Name: "core.frags_per_adu", Unit: "1", Better: "lower"},
	{Name: "core.nacks_sent", Unit: "count", Better: "lower"},
	{Name: "core.resent_adus", Unit: "count", Better: "lower"},
	{Name: "core.resent_frags", Unit: "count", Better: "lower"},
	{Name: "core.retx_useful_frac", Unit: "1", Better: "higher"},
	{Name: "core.dup_frags", Unit: "count", Better: "lower"},
	{Name: "core.late_frags", Unit: "count", Better: "lower"},
	{Name: "core.unfilled_nacks", Unit: "count", Better: "lower"},
	{Name: "core.auth_fails", Unit: "count", Better: "lower"},
	{Name: "lossy.dropped", Unit: "count", Better: "lower"},

	// udplink, from Link counters and the traced-pass conn wrapper.
	{Name: "udplink.write_ns_per_dgram", Unit: "ns", Better: "lower"},
	{Name: "udplink.writes_per_adu", Unit: "1", Better: "lower"},
	{Name: "udplink.reads_per_dgram", Unit: "1", Better: "lower"},
	{Name: "udplink.read_timeouts_per_dgram", Unit: "1", Better: "lower"},
	{Name: "udplink.deadline_sets_per_dgram", Unit: "1", Better: "lower"},
	{Name: "udplink.send_errs", Unit: "count", Better: "lower"},
	{Name: "udplink.dropped", Unit: "count", Better: "lower"},
	{Name: "proc.cpu_util", Unit: "cpus", Better: "higher"},

	// buf and sim, from Pool.Stats and Scheduler.Fired.
	{Name: "buf.gets_per_adu", Unit: "1", Better: "lower"},
	{Name: "buf.news_per_adu", Unit: "1", Better: "lower"},
	{Name: "buf.unpooled_per_adu", Unit: "1", Better: "lower"},
	{Name: "sim.events_per_adu", Unit: "1", Better: "lower"},

	// The shard plane and the runtime, which matter on flows_sharded_64k.
	{Name: "shard.events_per_s", Unit: "1/s", Better: "higher"},
	{Name: "shard.setup_ns_per_flow", Unit: "ns", Better: "lower"},
	{Name: "shard.max_trunk_queue", Unit: "count", Better: "lower"},
	{Name: "shard.virtual_Mbps", Unit: "Mb/s", Better: "higher"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_total_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.heap_inuse_MB", Unit: "MB", Better: "lower"},

	// The end-to-end metrics BENCHMARK.json does not gate (see endToEnd),
	// from the untraced repetitions.
	{Name: "goodput_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "adus_per_s", Unit: "1/s", Better: "higher"},
	{Name: "cpu_us_per_adu", Unit: "us", Better: "lower"},
	{Name: "allocs_per_adu", Unit: "1", Better: "lower"},
	{Name: "alloc_bytes_per_adu", Unit: "B", Better: "lower"},
	{Name: "adu_latency_p50_us", Unit: "us", Better: "lower"},
	{Name: "adu_latency_p90_us", Unit: "us", Better: "lower"},
	{Name: "failed_frac", Unit: "1", Better: "lower"},

	// Checks on the instrument itself.
	{Name: "harness.trace_overhead_frac", Unit: "1", Better: "lower"},
	{Name: "harness.adu_latency_p99_us", Unit: "us", Better: "lower"},
	{Name: "harness.adu_latency_max_us", Unit: "us", Better: "lower"},
	{Name: "harness.latency_samples", Unit: "count", Better: "higher"},
	{Name: "harness.rep_iqr_frac", Unit: "1", Better: "lower"},
	{Name: "harness.interference_frac", Unit: "1", Better: "lower"},

	// The ladder: each rung timed alone, the way the paper's section 4
	// builds Table 1. The same for every workload.
	{Name: "ilp.copy_sum_ns_per_KiB", Unit: "ns", Better: "lower"},
	{Name: "cipher.block_ns", Unit: "ns", Better: "lower"},
	{Name: "cipher.tagkey_ns", Unit: "ns", Better: "lower"},
	{Name: "ilp.seal_ns_per_KiB", Unit: "ns", Better: "lower"},
	{Name: "ilp.open_ns_per_KiB", Unit: "ns", Better: "lower"},
	{Name: "core.send_aead_ns_per_adu", Unit: "ns", Better: "lower"},
	{Name: "core.recv_aead_ns_per_adu", Unit: "ns", Better: "lower"},
	{Name: "buf.get_release_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.event_ns", Unit: "ns", Better: "lower"},
	{Name: "netsim.forward_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "udplink.raw_dgram_ns", Unit: "ns", Better: "lower"},
}

// rep is one repetition of one workload, before any arithmetic.
type rep struct {
	setupS, wallS float64
	adus          int64 // ledger-verified deliveries inside the measured window
	aduBytes      int
	start, end    snapshot
	best          best // the best slice of the window: see best.go

	// ADU latency over the whole window, us. No samples on
	// flows_sharded_64k: no ADU's Send or OnADU is visible from outside
	// RunFlowScale.
	latSamples                     int
	latP50, latP90, latP99, latMax float64

	submitted, failed int64 // whole repetition, warm-up and drain included
	ledger            string
	aborted           string // why the repetition ended early, if it did
	undrained         string // endpoint state left after the drain, if any
	resentADUs        int64
	authFails         int64

	tr   *tracer                     // traced repetition only
	flow *experiments.FlowScalePoint // flows_sharded_64k only
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEndValues computes the end-to-end metrics of a repetition: the
// first nine over its whole measured window, so every cost the program
// pays in it (collections, timers, wake-ups) is in them, the rest over
// its best slice. The latency metrics are left out where no latency was
// sampled.
func (p *rep) endToEndValues() map[string]float64 {
	adus := float64(p.adus)
	m := map[string]float64{
		"setup_s":             p.setupS,
		"goodput_MBps":        ratio(adus*float64(p.aduBytes)/1e6, p.wallS),
		"adus_per_s":          ratio(adus, p.wallS),
		"cpu_us_per_adu":      ratio(float64(p.end.cpu-p.start.cpu)/1e3, adus),
		"allocs_per_adu":      ratio(float64(p.end.mem.Mallocs-p.start.mem.Mallocs), adus),
		"alloc_bytes_per_adu": ratio(float64(p.end.mem.TotalAlloc-p.start.mem.TotalAlloc), adus),
		"failed_frac":         ratio(float64(p.failed), float64(p.submitted)),

		"best_slice_goodput_MBps": p.best.rate * float64(p.aduBytes) / 1e6,
		"best_slice_adus_per_s":   p.best.rate,
	}
	if p.latSamples > 0 {
		m["adu_latency_p50_us"] = p.latP50
		m["adu_latency_p90_us"] = p.latP90
		m["best_slice_latency_p50_us"] = p.best.p50
		m["best_slice_latency_p90_us"] = p.best.p90
	}
	return m
}

// layerValues computes the per-layer metrics that come from one
// (normally the traced) repetition. Ladder values, and the values taken
// from the untraced repetitions, are merged in by the caller.
func (p *rep) layerValues() map[string]float64 {
	adus := float64(p.adus)
	s, e := &p.start, &p.end
	d := func(a, b int64) float64 { return float64(b - a) }
	dgrams := d(s.link.recvd, e.link.recvd)
	m := map[string]float64{
		"core.frags_per_adu":    ratio(d(s.snd.Fragments, e.snd.Fragments), adus),
		"core.nacks_sent":       d(s.rcv.NacksSent, e.rcv.NacksSent),
		"core.resent_adus":      float64(p.resentADUs),
		"core.resent_frags":     d(s.snd.ResentFrags, e.snd.ResentFrags),
		"core.retx_useful_frac": ratio(d(s.link.lossyDropped, e.link.lossyDropped), d(s.snd.ResentFrags, e.snd.ResentFrags)),
		"core.dup_frags":        d(s.rcv.DupFragments, e.rcv.DupFragments),
		"core.late_frags":       d(s.rcv.LateFragments, e.rcv.LateFragments),
		"core.unfilled_nacks":   d(s.snd.UnfilledNacks, e.snd.UnfilledNacks),
		"core.auth_fails":       float64(p.authFails),
		"lossy.dropped":         d(s.link.lossyDropped, e.link.lossyDropped),

		"udplink.writes_per_adu":          ratio(d(s.link.writes, e.link.writes), adus),
		"udplink.reads_per_dgram":         ratio(d(s.link.reads, e.link.reads), dgrams),
		"udplink.read_timeouts_per_dgram": ratio(d(s.link.readTimeouts, e.link.readTimeouts), dgrams),
		"udplink.deadline_sets_per_dgram": ratio(d(s.link.deadlineSets, e.link.deadlineSets), dgrams),
		"udplink.send_errs":               d(s.link.sendErrs, e.link.sendErrs),
		"udplink.dropped":                 d(s.link.dropped, e.link.dropped),
		"proc.cpu_util":                   ratio(float64(e.cpu-s.cpu), float64(e.at-s.at)),

		"buf.gets_per_adu":     ratio(d(s.pool.Gets, e.pool.Gets), adus),
		"buf.news_per_adu":     ratio(d(s.pool.News, e.pool.News), adus),
		"buf.unpooled_per_adu": ratio(d(s.pool.Unpooled, e.pool.Unpooled), adus),
		"sim.events_per_adu":   ratio(float64(e.fired-s.fired), adus),

		"runtime.gc_cycles":         float64(e.mem.NumGC - s.mem.NumGC),
		"runtime.gc_pause_total_ms": float64(e.mem.PauseTotalNs-s.mem.PauseTotalNs) / 1e6,
		"runtime.heap_inuse_MB":     float64(e.mem.HeapInuse) / 1e6,
	}
	if f := p.flow; f != nil {
		m["sim.events_per_adu"] = ratio(float64(f.EventsFired), adus)
		m["shard.events_per_s"] = f.EventsPerSec
		m["shard.setup_ns_per_flow"] = ratio(p.setupS*1e9, float64(f.Flows))
		m["shard.max_trunk_queue"] = float64(f.MaxTrunkQueue)
		m["shard.virtual_Mbps"] = f.AggMbps
	}
	if t := p.tr; t != nil {
		self := func(id spanID) float64 { return ratio(float64(t.agg[id].Self), adus) }
		m["app.submit_self_ns_per_adu"] = self(spAppSubmit)
		m["core.send_self_ns_per_adu"] = self(spCoreSend)
		m["link.enqueue_self_ns_per_adu"] = self(spLinkEnqueue)
		m["loop.self_ns_per_adu"] = self(spLoopRun) + self(spFlowScale)
		m["udplink.write_self_ns_per_adu"] = self(spUDPWrite)
		m["core.recv_self_ns_per_adu"] = self(spCoreRecv)
		m["app.deliver_self_ns_per_adu"] = self(spAppDeliver)
		m["core.control_ns_per_adu"] = self(spCoreControl)
		m["harness.self_ns_per_adu"] = self(spRep)
		m["harness.window_ns_per_adu"] = ratio(float64(t.selfSum()), adus)
		m["udplink.write_ns_per_dgram"] = ratio(float64(t.agg[spUDPWrite].Total), float64(t.agg[spUDPWrite].Count))
	}
	return m
}

// summary is one end-to-end metric of one workload in one run.
type summary struct {
	Unit string `json:"unit"`
	// Value is the run's number: the median of Reps, except that
	// failed_frac is failures over submissions across all repetitions
	// and a best_slice_* metric of a sliced workload is the best of Reps,
	// the best slice of the run. It is what the result line prints.
	Value float64 `json:"value"`
	// Reps holds each repetition's own value, which -compare pools; the
	// quartiles describe them.
	Reps []float64 `json:"reps"`
	Q1   float64   `json:"q1"`
	Q3   float64   `json:"q3"`
}

// summarize describes the repetitions' values vs of one metric. The
// run's value is their median, or with bestOf their best.
func summarize(def metricDef, vs []float64, bestOf bool) summary {
	q1, q3 := quartiles(vs)
	s := summary{Unit: def.Unit, Value: median(vs), Reps: vs, Q1: q1, Q3: q3}
	if bestOf {
		s.Value = slices.Min(vs)
		if def.Better == "higher" {
			s.Value = slices.Max(vs)
		}
	}
	return s
}

// finite reports whether v can be written as a JSON number.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
