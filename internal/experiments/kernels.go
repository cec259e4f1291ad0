// Package experiments implements every reproduction experiment from
// DESIGN.md: the paper's Table 1 and §4 measurements (wall-clock kernel
// timings) and the §5-§7 architectural claims (virtual-time protocol
// simulations). Both the root benchmark suite and cmd/alfbench call
// into this package, so a table printed by the harness and a benchmark
// row regenerate the same numbers.
package experiments

import (
	"math"
	"math/rand"
	"time"

	"repro/internal/checksum"
	"repro/internal/ilp"
	"repro/internal/xcode"
)

// measure is the package's one wall-clock timer: it runs fn once to
// warm up, then in three trials of minTime/3 each, and returns the best
// trial's time per call in nanoseconds. For a deterministic CPU-bound
// body the minimum is the least contaminated by scheduler preemption
// and frequency excursions, which otherwise swing single-shot numbers
// wildly on shared machines.
func measure(minTime time.Duration, fn func()) float64 {
	fn()
	trial := minTime / 3
	if trial <= 0 {
		trial = time.Millisecond
	}
	best := math.Inf(1)
	for t := 0; t < 3; t++ {
		iters := 1
		for {
			start := time.Now()
			for i := 0; i < iters; i++ {
				fn()
			}
			elapsed := time.Since(start)
			if elapsed >= trial {
				best = min(best, float64(elapsed.Nanoseconds())/float64(iters))
				break
			}
			if elapsed <= 0 {
				iters *= 1000
				continue
			}
			// Scale iteration count toward the target time.
			iters = int(float64(iters)*float64(trial)/float64(elapsed)) + 1
		}
	}
	return best
}

// rate is measure as a throughput: Mb/s for bytesPerOp payload bytes
// per call.
func rate(bytesPerOp int, minTime time.Duration, fn func()) float64 {
	return float64(bytesPerOp) * 8e3 / measure(minTime, fn)
}

// KernelReport holds the wall-clock kernel measurements that reproduce
// Table 1 and the §4 in-text results, in Mb/s.
type KernelReport struct {
	BufBytes int

	// T1: the two fundamental manipulations.
	Copy     float64 // word-aligned copy (Table 1 "Copy")
	Checksum float64 // Internet checksum (Table 1 "Checksum")

	// E2: separate passes vs one fused loop.
	SeparateCopyChecksum float64 // copy pass then checksum pass
	FusedCopyChecksum    float64 // single integrated loop
	// PredictedSeparate is the harmonic composition 1/(1/c+1/k) the
	// paper uses for "if they were done separately" (130 & 115 -> ~60).
	PredictedSeparate float64

	// E3: presentation conversion vs copy.
	BEREncode  float64 // []int32 -> ASN.1 SEQUENCE OF INTEGER (xcode.AppendBERInt32s)
	BERDecode  float64 // and back into application variables (ilp.DecodeBERInt32sInto)
	XDREncode  float64
	LWTSEncode float64

	// E5: conversion with the checksum fused into the same loop.
	BEREncodeChecksum float64
}

// RunKernels measures all §4 kernels on bufBytes buffers, spending
// about minTime per kernel.
func RunKernels(bufBytes int, minTime time.Duration) KernelReport {
	r := KernelReport{BufBytes: bufBytes}
	src := make([]byte, bufBytes)
	rand.New(rand.NewSource(1)).Read(src)
	dst := make([]byte, bufBytes)

	// The integer-array workload sized to the same byte volume.
	ints := make([]int32, bufBytes/4)
	rnd := rand.New(rand.NewSource(2))
	for i := range ints {
		ints[i] = int32(rnd.Uint32())
	}
	encBuf := make([]byte, 0, bufBytes*2)
	enc := xcode.AppendBERInt32s(nil, ints)
	out := make([]int32, len(ints))

	r.Copy = rate(bufBytes, minTime, func() { ilp.WordCopy(dst, src) })
	r.Checksum = rate(bufBytes, minTime, func() { checksum.Sum16(src) })
	r.SeparateCopyChecksum = rate(bufBytes, minTime, func() { ilp.SeparateCopyThenChecksum(dst, src) })
	r.FusedCopyChecksum = rate(bufBytes, minTime, func() { ilp.FinishSum(ilp.FusedCopySum(dst, src)) })
	r.PredictedSeparate = 1 / (1/r.Copy + 1/r.Checksum)

	r.BEREncode = rate(bufBytes, minTime, func() { encBuf = xcode.AppendBERInt32s(encBuf[:0], ints) })
	r.BERDecode = rate(bufBytes, minTime, func() { ilp.DecodeBERInt32sInto(enc, out) })
	xdrBuf := make([]byte, 0, bufBytes+16)
	v := xcode.Int32sValue(ints)
	r.XDREncode = rate(bufBytes, minTime, func() { xdrBuf, _ = (xcode.XDR{}).EncodeValue(xdrBuf[:0], v) })
	lwtsBuf := make([]byte, 0, bufBytes+16)
	r.LWTSEncode = rate(bufBytes, minTime, func() { lwtsBuf, _ = (xcode.LWTS{}).EncodeValue(lwtsBuf[:0], v) })

	r.BEREncodeChecksum = rate(bufBytes, minTime, func() {
		encBuf, _ = ilp.EncodeBERInt32sChecksum(encBuf[:0], ints)
	})
	return r
}

// PipelineReport holds the F5/A1 measurements: layered passes vs a
// generic fused loop vs the hand-fused kernel, by stage depth.
type PipelineReport struct {
	BufBytes int
	// LayeredMbps[k] and FusedMbps[k] are indexed by stage count 1..5
	// (index 0 unused).
	LayeredMbps [6]float64
	FusedMbps   [6]float64
	// HandFused2 is the dedicated two-stage kernel (copy+checksum) for
	// the A1 ablation against LayeredMbps[2]/FusedMbps[2].
	HandFused2 float64
	// HandFused3 is the dedicated three-stage kernel
	// (copy+checksum+decrypt), SuiteScramble's FusedDecryptCopySum.
	HandFused3 float64
}

// RunPipeline measures the stage pipelines on bufBytes buffers.
func RunPipeline(bufBytes int, minTime time.Duration) PipelineReport {
	r := PipelineReport{BufBytes: bufBytes}
	src := make([]byte, bufBytes)
	rand.New(rand.NewSource(3)).Read(src)
	dst := make([]byte, bufBytes)
	scratch := make([]byte, bufBytes)

	for k := 1; k <= 5; k++ {
		lst, _ := ilp.StandardStages(k, 99)
		r.LayeredMbps[k] = rate(bufBytes, minTime, func() { ilp.LayeredPath(dst, scratch, src, lst) })
		fst, _ := ilp.StandardStages(k, 99)
		r.FusedMbps[k] = rate(bufBytes, minTime, func() { ilp.FusedPath(dst, src, fst) })
	}
	r.HandFused2 = rate(bufBytes, minTime, func() { ilp.FinishSum(ilp.FusedCopySum(dst, src)) })
	r.HandFused3 = rate(bufBytes, minTime, func() { ilp.FinishSum(ilp.FusedDecryptCopySum(dst, src, 99, 0)) })
	return r
}

// ControlReport holds the F1 measurement: per-packet control cost next
// to per-packet manipulation cost.
type ControlReport struct {
	PacketBytes int
	// ControlNs is the time to run the receive-side transfer-control
	// decisions for one packet (parse header, verify its checksum,
	// demultiplex, sequence check) — no payload touched.
	ControlNs float64
	// ManipulationNs is the time for the payload data pass
	// (fused copy+checksum) of the same packet.
	ManipulationNs float64
}

// RunControl measures F1 for one packet size.
func RunControl(packetBytes int, minTime time.Duration) ControlReport {
	r := ControlReport{PacketBytes: packetBytes}

	// A minimal 16-byte transport header mirroring otp's layout.
	hdr := make([]byte, 16)
	hdr[0] = 1
	ck := checksum.Sum16(hdr)
	hdr[12], hdr[13] = byte(ck>>8), byte(ck)

	// Demux + integrity + order decision, the §4 control path, a
	// thousand packets per call on locals the loop can keep in
	// registers.
	sink := 0
	r.ControlNs = measure(minTime, func() {
		h, n := hdr, sink
		for i := 0; i < 1000; i++ {
			if !checksum.Verify16(h) {
				n++
			}
			seq := int(h[2])<<24 | int(h[3])<<16 | int(h[4])<<8 | int(h[5])
			if seq == n {
				n++
			}
		}
		sink = n
	}) / 1000

	src := make([]byte, packetBytes)
	dst := make([]byte, packetBytes)
	rand.New(rand.NewSource(4)).Read(src)
	r.ManipulationNs = measure(minTime, func() { ilp.FinishSum(ilp.FusedCopySum(dst, src)) })
	return r
}
