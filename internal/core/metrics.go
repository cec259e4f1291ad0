package alf

import (
	"fmt"

	"repro/internal/metrics"
)

// This file wires both stream endpoints into the unified metrics
// registry (internal/metrics). SenderStats and ReceiverStats are the
// only storage for event counts — tests and examples read them
// directly — and metrics.BindStats exposes every field under the name
// in its `metric` tag, so the struct and the registry can never
// disagree and a new counter is one line. The signals the structs
// cannot carry are live levels (GaugeFunc, read at Snapshot time) and
// distributions (Histogram), registered below. With a nil registry
// nothing is built — no label, no closure, no reflection — every
// histogram is nil, and each observation costs one nil-check branch
// (see internal/metrics).

// senderMetrics holds the sender's histograms.
type senderMetrics struct {
	// aduBytes is the distribution of ADU payload sizes submitted by
	// the application — the paper's §5 "ADU lengths should be
	// reasonably bounded" made measurable.
	aduBytes *metrics.Histogram
}

// bindSenderMetrics registers the sender's series, labeled by stream.
func bindSenderMetrics(r *metrics.Registry, s *Sender) senderMetrics {
	if r == nil {
		return senderMetrics{}
	}
	lb := fmt.Sprintf("stream=%d", s.cfg.StreamID)
	metrics.BindStats(r, "core.send", &s.Stats, lb)
	r.GaugeFunc("core.send.buffered_bytes", func() int64 { return int64(s.bufBytes) }, lb)
	r.GaugeFunc("core.send.buffered_adus", func() int64 { return int64(s.bufADUs) }, lb)
	r.GaugeFunc("core.send.rate_bps", func() int64 { return int64(s.cfg.RateBps) }, lb)
	// The un-jittered backoff level (hbBackoff, not hbInterval): the
	// gauge must not step the jitter PRNG or sampling would change the
	// run. The telemetry plane's backoff-saturation detector watches
	// this climb to HeartbeatMaxInterval during blackouts.
	r.GaugeFunc("core.send.heartbeat_interval_ns", func() int64 { return int64(s.hbBackoff()) }, lb)
	return senderMetrics{aduBytes: r.Histogram("core.send.adu_bytes", lb)}
}

// recvMetrics holds the receiver's histograms.
type recvMetrics struct {
	// aduLatency is the virtual-time distribution from an ADU's first
	// fragment arriving to its verified delivery — reassembly plus any
	// recovery rounds, and exactly the latency ALF's out-of-order
	// delivery keeps independent per ADU (§5).
	aduLatency *metrics.Histogram
	// aduBytes is the distribution of delivered ADU sizes.
	aduBytes *metrics.Histogram
}

// bindReceiverMetrics registers the receiver's series, labeled by
// stream.
func bindReceiverMetrics(r *metrics.Registry, rc *Receiver) recvMetrics {
	if r == nil {
		return recvMetrics{}
	}
	lb := fmt.Sprintf("stream=%d", rc.cfg.StreamID)
	metrics.BindStats(r, "core.recv", &rc.Stats, lb)
	r.GaugeFunc("core.recv.pending_adus", func() int64 { return int64(rc.pending) }, lb)
	r.GaugeFunc("core.recv.missing_adus", func() int64 { return int64(rc.missing) }, lb)
	r.GaugeFunc("core.recv.settled", func() int64 { return int64(rc.cum) }, lb)
	return recvMetrics{
		aduLatency: r.Histogram("core.recv.adu_latency_ns", lb),
		aduBytes:   r.Histogram("core.recv.adu_bytes", lb),
	}
}
