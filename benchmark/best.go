package main

import (
	"math"
	"slices"
)

// The best slice is what BENCHMARK.json bounds, beside the whole-window
// metrics ISSUE 13 defines.
//
// The benchmark runs on shared hosts where other tenants slow the
// process down by up to 2x, for stretches of milliseconds and for
// stretches longer than a run. The whole-window metrics (goodput_MBps
// and the rest) hold every cost the program pays, and all of that:
// over four sets of ten runs of one commit their medians spread, as
// interquartile range over median, by up to 15%, 35%, 56% and 33% on
// the UDP workloads. The benchmark driver refuses a benchmark whose
// end-to-end metrics spread by more than their bound, 25% at most, so
// it cannot be given those.
//
// Interference only ever makes a stretch of the run slower, and even a
// busy host leaves some stretches alone. The measured window of a
// repetition is therefore also cut into slices of sliceADUs deliveries,
// and the best_slice_* metrics are the rate and the latency percentiles
// of the repetition's best slice, and over a run of the best
// repetition's: the program's speed while the host left it alone. They repeat from run to run, and that is all they are
// for. They leave out what a slice is too short to hold (a collection,
// a stalled wake-up), so a gain or a loss is claimed on the
// whole-window metrics and the allocation counts, by the paired-run
// recipe in README.md; harness.interference_frac says how far apart
// the two were.

// sliceADUs is how many deliveries make a slice: enough for a 90th
// percentile with a dozen samples beyond it, few enough (0.7 to 12 ms)
// to fit between two stretches of interference. A workload with
// injected loss is not sliced, because there shorter is not steadier (a
// short slice is fast when it happens to hold no drop) and its whole
// window repeats as it is, being set by timers and not by the CPU; nor
// is flows_sharded_64k, one opaque call. Their one slice is the
// repetition, and their run's value the median repetition like any
// whole-window metric's: the best of a handful of whole repetitions is
// the luckiest, not the cleanest.
const sliceADUs = 128

// mark is the boundary between two slices of the measured window.
type mark struct {
	at   int64 // ns since the rig's epoch
	good int64 // ledger-verified deliveries so far
	lat  int   // latency samples recorded so far
}

// best holds the best-slice numbers of one repetition.
type best struct {
	rate     float64 // ADUs per second in the fastest slice
	p50, p90 float64 // us: the lowest per-slice median and 90th percentile of ADU latency
}

// bestSlices cuts the window at marks and picks each metric's best
// slice. The last slice is the window's tail, cut short by the
// deadline, and is ignored unless it is the only one. lat holds the
// latency samples in delivery order; it is sorted within each slice as
// a side effect.
func bestSlices(marks []mark, lat []int64) best {
	n := len(marks) - 1
	if n > 1 {
		n--
	}
	b := best{p50: math.Inf(1), p90: math.Inf(1)}
	for i := 1; i <= n; i++ {
		lo, hi := marks[i-1], marks[i]
		adus, dur := float64(hi.good-lo.good), float64(hi.at-lo.at)
		seg := lat[lo.lat:hi.lat]
		if adus <= 0 || dur <= 0 || len(seg) == 0 {
			continue
		}
		slices.Sort(seg)
		b.rate = math.Max(b.rate, adus/(dur/1e9))
		b.p50 = math.Min(b.p50, float64(percentileSorted(seg, 50))/1e3)
		b.p90 = math.Min(b.p90, float64(percentileSorted(seg, 90))/1e3)
	}
	if b.rate == 0 {
		return best{}
	}
	return b
}
