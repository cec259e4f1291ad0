package metrics

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// numBuckets covers the full non-negative int64 range in powers of
// two: bucket 0 holds values <= 0, bucket i (1..63) holds values in
// [2^(i-1), 2^i - 1], with the top bucket capped at MaxInt64.
const numBuckets = 64

// NumBuckets is the fixed bucket count of every Histogram, exported
// for callers (the telemetry recorder) that diff raw bucket counts
// between sampling ticks without allocating.
const NumBuckets = numBuckets

// BucketUpper returns the inclusive upper bound of bucket i, the value
// a quantile estimate reports for observations landing in that bucket.
// Out-of-range i returns 0.
func BucketUpper(i int) int64 {
	if i < 0 || i >= numBuckets {
		return 0
	}
	_, hi := bucketBounds(i)
	return hi
}

// Histogram is a fixed-size log2-bucketed histogram of int64
// observations — latencies in nanoseconds, ADU and segment sizes in
// bytes. Log bucketing gives ~2x relative resolution over 18 decimal
// orders of magnitude in 65 atomic slots, with no configuration and no
// allocation per observation. All methods are no-ops on a nil
// receiver; observation is safe for concurrent use.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64 // valid only when count > 0
	max     atomic.Int64
	buckets [numBuckets]atomic.Int64
}

func newHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.MaxInt64)
	h.max.Store(math.MinInt64)
	return h
}

// bucketOf maps a value to its bucket index.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// bucketBounds returns the inclusive [lo, hi] value range of bucket i.
func bucketBounds(i int) (lo, hi int64) {
	if i == 0 {
		return math.MinInt64, 0
	}
	lo = int64(1) << (i - 1)
	if i == 63 {
		return lo, math.MaxInt64
	}
	return lo, int64(1)<<i - 1
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketOf(v)].Add(1)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// ObserveDuration records a duration in nanoseconds. Callers in the
// simulation derive d from the virtual clock, keeping snapshots
// deterministic.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// ReadCounts copies the raw per-bucket counts into dst and returns the
// total observation count, without allocating. It is the sampling-tick
// read path for the telemetry recorder, which diffs successive reads
// to get interval (not cumulative) distributions. A nil receiver
// zeroes dst and returns 0. As with snapshot, concurrent observers may
// land between loads; reads are exact once writers quiesce.
func (h *Histogram) ReadCounts(dst *[NumBuckets]int64) (count int64) {
	if h == nil {
		*dst = [NumBuckets]int64{}
		return 0
	}
	for i := range h.buckets {
		dst[i] = h.buckets[i].Load()
	}
	return h.count.Load()
}

// snapshot captures the histogram's current state. Concurrent
// observers may land between field loads; the capture is internally
// plausible (count matches bucket totals read) once writers quiesce,
// which is the snapshot contract the simulation needs.
func (h *Histogram) snapshot() *HistogramValue {
	hv := &HistogramValue{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
	}
	if hv.Count > 0 {
		hv.Min = h.min.Load()
		hv.Max = h.max.Load()
	}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			lo, hi := bucketBounds(i)
			hv.Buckets = append(hv.Buckets, Bucket{Lo: lo, Hi: hi, Count: n})
		}
	}
	return hv
}

// Bucket is one populated histogram bucket; the value range [Lo, Hi]
// is inclusive.
type Bucket struct {
	Lo, Hi int64
	Count  int64
}

// HistogramValue is the immutable state of a histogram inside a
// Snapshot.
type HistogramValue struct {
	Count, Sum int64
	Min, Max   int64
	Buckets    []Bucket // populated buckets only, ascending
}

// Mean returns the arithmetic mean of the observations, or 0 when
// empty.
func (hv *HistogramValue) Mean() float64 {
	if hv.Count == 0 {
		return 0
	}
	return float64(hv.Sum) / float64(hv.Count)
}

// Quantile returns an estimate of the q-th quantile (0 <= q <= 1): the
// upper bound of the bucket containing the q-th ranked observation,
// clamped to the observed min/max. Within-bucket error is bounded by
// the 2x bucket width.
//
// The exact contract, which the flight recorder's interval-quantile
// series depends on:
//
//   - An empty histogram returns 0 for every q.
//   - The rank is ceil(q*Count) clamped to at least 1, so q=0 (and any
//     q small enough to round to rank 0) reports the bucket of the
//     smallest observation — its upper bound, clamped to Max, NOT Min:
//     the estimate is an upper bound even at q=0.
//   - q=1 ranks the largest observation, and because the estimate is
//     clamped to Max from above, Quantile(1) == Max exactly.
//   - When all observations share one bucket, every q returns the same
//     value: the bucket's upper bound clamped into [Min, Max] (equal to
//     Max whenever the bucket bound exceeds it).
//   - There is no within-bucket interpolation: the estimate never
//     understates the true quantile, and never overstates it by more
//     than the bucket width (a factor of 2 at the ranked value).
func (hv *HistogramValue) Quantile(q float64) int64 {
	if hv.Count == 0 {
		return 0
	}
	i := RankBucket(q, hv.Count, len(hv.Buckets), func(i int) int64 { return hv.Buckets[i].Count })
	if i < 0 {
		return hv.Max
	}
	return max(min(hv.Buckets[i].Hi, hv.Max), hv.Min)
}

// RankBucket is the walk every quantile estimate in the repository
// makes: over the per-bucket counts of n observations (count(i) for i
// in [0, buckets), ascending) to the bucket holding the q-th ranked one
// — rank ceil(q*n), at least 1 — whose index it returns. Counts that
// fall short of the rank give the last bucket; no buckets give -1.
func RankBucket(q float64, n int64, buckets int, count func(i int) int64) int {
	rank := int64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := 0; i < buckets; i++ {
		if cum += count(i); cum >= rank {
			return i
		}
	}
	return buckets - 1
}
