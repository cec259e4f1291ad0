package experiments

import (
	"fmt"
	"time"

	"repro/internal/metrics"
)

// This file publishes the wall-clock kernel measurements into the
// unified metrics registry, so cmd/alfstat can print the paper's §4
// cost model — control cost per packet vs manipulation cost per byte,
// and bytes touched per pass under layered vs integrated processing —
// in the same table as the simulation counters. Each figure is measured
// once, so its gauge reads a constant.

// gauge registers the constant v as a gauge.
func gauge(r *metrics.Registry, name string, v int64, labels ...string) {
	r.GaugeFunc(name, func() int64 { return v }, labels...)
}

// RunControlInto measures the §4 per-packet split for one packet size
// and records it: transfer control is (nearly) size-independent, the
// data manipulation pass is cycles per byte.
func RunControlInto(r *metrics.Registry, packetBytes int, minTime time.Duration) ControlReport {
	c := RunControl(packetBytes, minTime)
	lb := fmt.Sprintf("pkt_bytes=%d", packetBytes)
	gauge(r, "experiments.control_ns", int64(c.ControlNs), lb)
	gauge(r, "experiments.manipulation_ns", int64(c.ManipulationNs), lb)
	return c
}

// RunPipelineInto measures the F5/A1 stage pipelines and records, for
// each stage depth, the bytes a receive of bufBytes touches under the
// two engineering styles: the layered design pays one full memory pass
// per stage, the integrated loop touches each byte once regardless of
// depth (§6).
func RunPipelineInto(r *metrics.Registry, bufBytes int, minTime time.Duration) PipelineReport {
	p := RunPipeline(bufBytes, minTime)
	for k := 1; k <= 5; k++ {
		lb := fmt.Sprintf("stages=%d", k)
		gauge(r, "experiments.pipeline.pass_bytes", int64(k*bufBytes), lb, "path=layered")
		gauge(r, "experiments.pipeline.pass_bytes", int64(bufBytes), lb, "path=fused")
		gauge(r, "experiments.pipeline.rate_kbps", int64(p.LayeredMbps[k]*1e3), lb, "path=layered")
		gauge(r, "experiments.pipeline.rate_kbps", int64(p.FusedMbps[k]*1e3), lb, "path=fused")
	}
	return p
}
