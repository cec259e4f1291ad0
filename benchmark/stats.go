package main

import (
	"math"
	"slices"
)

// median returns the middle value of vs (mean of the two middle values
// for an even count). It sorts a copy. NaN for an empty input.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := sorted(vs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of vs by the same
// rule as Python's statistics.quantiles(vs, n=4) (the "exclusive"
// method), which is what the acceptance check uses: position
// k*(n+1)/4 in the sorted data, interpolated linearly and clamped to
// the ends. With fewer than two values both quartiles are the median.
func quartiles(vs []float64) (q1, q3 float64) {
	if len(vs) < 2 {
		m := median(vs)
		return m, m
	}
	s := sorted(vs)
	return exclusiveQuantile(s, 1), exclusiveQuantile(s, 3)
}

func exclusiveQuantile(s []float64, k int) float64 {
	n := len(s)
	j := k * (n + 1) / 4
	if j < 1 {
		j = 1
	}
	if j > n-1 {
		j = n - 1
	}
	delta := float64(k*(n+1) - j*4)
	return (s[j-1]*(4-delta) + s[j]*delta) / 4
}

// iqrFrac is the interquartile range as a share of the median: the
// spread figure the acceptance criteria and -compare use.
func iqrFrac(vs []float64) float64 {
	m := median(vs)
	if len(vs) < 2 || m == 0 || math.IsNaN(m) {
		return 0
	}
	q1, q3 := quartiles(vs)
	return (q3 - q1) / math.Abs(m)
}

// percentileSorted returns the p-th percentile (0..100) of an
// ascending slice by the nearest-rank rule: the smallest sample with
// at least p% of the samples at or below it. Nearest rank never
// invents a value between two samples, so a reported p99 is a latency
// some ADU really had.
func percentileSorted(s []int64, p float64) int64 {
	if len(s) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

func sorted(vs []float64) []float64 {
	s := slices.Clone(vs)
	slices.Sort(s)
	return s
}
