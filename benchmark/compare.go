package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// verdict is -compare's judgement of one (workload, metric) pair.
type verdict string

const (
	better     verdict = "better"
	same       verdict = "same"
	worse      verdict = "worse"
	unresolved verdict = "unresolved" // the spread is wider than the bound, or one side has no sample
)

// bound is how far def may worsen from a parent median before it counts
// as a regression.
func (def metricDef) bound(parentMedian float64) float64 {
	return math.Max(def.Rel*math.Abs(parentMedian), def.Abs)
}

// judge compares the samples of one metric on two sides: a is the
// parent (or the first set of runs), b the change (or the second set).
// A side with no sample, or with one that is not a number, cannot be
// judged. A pair whose wider interquartile range exceeds the bound
// cannot be resolved with these runs, unless every value of one side
// beats every value of the other. Otherwise b is worse or better if its
// median moved by more than the bound, and the same if not. Under a
// zero bound (failed_frac) any rise counts and no spread excuses it, so
// there the worst values are compared, not the medians: one repetition
// that failed an ADU is a regression however many did not.
func judge(def metricDef, a, b []float64) verdict {
	if !allFinite(a) || !allFinite(b) {
		return unresolved
	}
	sign := 1.0 // after this, larger is worse
	if def.Better == "higher" {
		sign = -1
	}
	bound := def.bound(median(a))
	delta := sign * (median(b) - median(a))
	if bound == 0 {
		delta = worst(sign, b) - worst(sign, a)
	} else if spread(a, b) > bound {
		switch {
		case disjoint(sign, b, a) && -delta > bound:
			return better
		case disjoint(sign, a, b) && delta > bound:
			return worse
		}
		return unresolved
	}
	switch {
	case delta > bound:
		return worse
	case -delta > bound:
		return better
	}
	return same
}

// allFinite reports whether vs is a sample: at least one value, all of
// them numbers.
func allFinite(vs []float64) bool {
	for _, v := range vs {
		if !finite(v) {
			return false
		}
	}
	return len(vs) > 0
}

// worst is the worst value of vs, as sign*v (sign as in judge).
func worst(sign float64, vs []float64) float64 {
	w := math.Inf(-1)
	for _, v := range vs {
		w = math.Max(w, sign*v)
	}
	return w
}

// spread is the wider of the two samples' interquartile ranges.
func spread(a, b []float64) float64 {
	a1, a3 := quartiles(a)
	b1, b3 := quartiles(b)
	return math.Max(a3-a1, b3-b1)
}

// disjoint reports whether every value of lo is better than every
// value of hi (sign as in judge).
func disjoint(sign float64, lo, hi []float64) bool {
	return worst(sign, lo) < -worst(-sign, hi)
}

// side is one side of a comparison: the reports of one or more runs of
// the same commit, given as a comma-separated list of -json files.
type side []*report

func readSide(arg string) (side, error) {
	var s side
	for _, path := range strings.Split(arg, ",") {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		rp := new(report)
		if err := json.Unmarshal(b, rp); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		s = append(s, rp)
	}
	return s, nil
}

// sample pools the repetitions of one metric of one workload over all
// the side's runs. ok is false if no run has the workload; vs is empty
// if none that has it has the metric.
func (s side) sample(workload, metric string) (vs []float64, ok bool) {
	for _, rp := range s {
		for i := range rp.Workloads {
			if w := &rp.Workloads[i]; w.Name == workload {
				ok = true
				vs = append(vs, w.EndToEnd[metric].Reps...)
			}
		}
	}
	return vs, ok
}

// runCompare prints a verdict for every (workload, end-to-end metric)
// pair of the workloads both sides ran; a metric only one side has is
// unresolved. It returns 0 if none is worse or
// unresolved: the two sets of runs agree.
func runCompare(argA, argB string, stdout, stderr io.Writer) int {
	a, err := readSide(argA)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	b, err := readSide(argB)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	fmt.Fprintf(stdout, "a: %d run(s), first seed %d; b: %d run(s), first seed %d\n", len(a), a[0].Seed, len(b), b[0].Seed)
	fmt.Fprintf(stdout, "%-18s %-20s %12s %12s %10s %10s %10s  %s\n",
		"workload", "metric", "a median", "b median", "change", "bound", "spread", "verdict")
	bad, pairs := 0, 0
	for i := range specs {
		name := specs[i].name
		for _, def := range endToEnd {
			va, okA := a.sample(name, def.Name)
			vb, okB := b.sample(name, def.Name)
			if !okA || !okB || len(va)+len(vb) == 0 {
				continue // a workload one side did not run, or a metric the workload does not have
			}
			v := judge(def, va, vb)
			pairs++
			if v == worse || v == unresolved {
				bad++
			}
			fmt.Fprintf(stdout, "%-18s %-20s %12.6g %12.6g %+10.3g %10.3g %10.3g  %s\n",
				name, def.Name, median(va), median(vb), median(vb)-median(va), def.bound(median(va)), spread(va, vb), v)
		}
	}
	fmt.Fprintf(stdout, "%d pairs, %d worse or unresolved\n", pairs, bad)
	if pairs == 0 {
		fmt.Fprintln(stderr, "benchmark: the two sides share no workload")
		return 2
	}
	if bad != 0 {
		return 1
	}
	return 0
}
