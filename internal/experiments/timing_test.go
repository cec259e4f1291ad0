//go:build timing

package experiments

import (
	"fmt"
	"testing"

	"repro/internal/xcode"
)

// The wall-clock comparisons of the shape tests: which of two measured
// rates is the larger, and by how much. They hold on a quiet host and
// not on a shared one, so `go test ./...` leaves them out; `make timing`
// (part of `make check`) runs them. What stays in the untagged tests is
// what holds anywhere: rates are non-zero, and effects of an order of
// magnitude point the right way.

func TestKernelsTiming(t *testing.T) {
	// E2 shape: the fused loop must beat the two separate passes. The
	// margin is ~20%, within scheduler noise, so retry on interference.
	eventually(t, 5, func() error {
		k := RunKernels(4096, testMinTime)
		if k.FusedCopyChecksum <= k.SeparateCopyChecksum {
			return fmt.Errorf("fused (%v) not faster than separate (%v)",
				k.FusedCopyChecksum, k.SeparateCopyChecksum)
		}
		if k.FusedCopyChecksum >= k.Copy+k.Checksum {
			return fmt.Errorf("fused rate (%v) implausibly high", k.FusedCopyChecksum)
		}
		return nil
	})
}

func TestPipelineTiming(t *testing.T) {
	// A1 as EXPERIMENTS.md reports it. FusedPath and LayeredPath both pay
	// one indirect Word call per stage per word, and at 256 KB source,
	// destination and scratch all sit in L2, so the pass the generic
	// loop saves costs less than the walk down the stage list it adds:
	// at k=2 it does not beat the layered passes on this host (nor did
	// it at the parent). What the generic loop does show is the
	// direction — its standing against the layered passes improves with
	// every stage added — and what the hand kernels show is the size of
	// the win once the calls are gone.
	eventually(t, 5, func() error {
		p := RunPipeline(256<<10, testMinTime)
		adv2 := p.FusedMbps[2] / p.LayeredMbps[2]
		adv5 := p.FusedMbps[5] / p.LayeredMbps[5]
		if adv5 <= adv2 {
			return fmt.Errorf("ILP advantage did not grow with depth: k2=%.2fx k5=%.2fx", adv2, adv5)
		}
		if best := max(p.FusedMbps[2], p.LayeredMbps[2]); p.HandFused2 < 2*best {
			return fmt.Errorf("hand-fused k=2 (%v) not twice the better generic path (%v)", p.HandFused2, best)
		}
		if best := max(p.FusedMbps[3], p.LayeredMbps[3]); p.HandFused3 < 2*best {
			return fmt.Errorf("hand-fused k=3 (%v) not twice the better generic path (%v)", p.HandFused3, best)
		}
		return nil
	})
}

func TestStackTiming(t *testing.T) {
	// E4: conversion-intensive case much slower; presentation
	// dominates.
	eventually(t, 5, func() error {
		rep, err := RunStack(xcode.BER{}, 64<<10, 4, testMinTime)
		if err != nil {
			return err
		}
		if rep.Slowdown < 1.5 {
			return fmt.Errorf("int-array stack only %.2fx slower than octet stack", rep.Slowdown)
		}
		if rep.PresentationShare < 0.3 {
			return fmt.Errorf("presentation share = %.2f, want the dominant cost", rep.PresentationShare)
		}
		return nil
	})
}

func TestILPStackTiming(t *testing.T) {
	eventually(t, 5, func() error {
		layered, err := RunStack(xcode.BER{}, 64<<10, 4, testMinTime)
		if err != nil {
			return err
		}
		ilpRep, err := RunStackILP(64<<10, 4, testMinTime)
		if err != nil {
			return err
		}
		if ilpRep.OctetMbps <= 0 || ilpRep.IntMbps <= 0 {
			return fmt.Errorf("degenerate: %+v", ilpRep)
		}
		// E6: the ALF/ILP stack must beat the layered stack on the
		// conversion-heavy workload (fewer memory passes, fused decode).
		if ilpRep.IntMbps <= layered.IntMbps {
			return fmt.Errorf("ILP int stack (%v) not faster than layered (%v)",
				ilpRep.IntMbps, layered.IntMbps)
		}
		// The raw path must also win: two fused passes beat five layered
		// ones.
		if ilpRep.OctetMbps <= layered.OctetMbps {
			return fmt.Errorf("ILP octet stack (%v) not faster than layered (%v)",
				ilpRep.OctetMbps, layered.OctetMbps)
		}
		// Amdahl corollary of §5: once the non-presentation passes are
		// fused away, conversion dominates the ILP stack even more than
		// it dominated the layered one.
		ilpSlowdown := ilpRep.OctetMbps / ilpRep.IntMbps
		if ilpSlowdown < layered.Slowdown/2 {
			return fmt.Errorf("ILP conversion share unexpectedly small: %.2fx vs layered %.2fx",
				ilpSlowdown, layered.Slowdown)
		}
		return nil
	})
}
