package otp

import (
	"fmt"

	"repro/internal/metrics"
)

// connMetrics holds the connection's histograms; the event counters in
// Stats are bound by their `metric` tags, so the struct stays the
// single source of truth (see metrics.BindStats).
type connMetrics struct {
	// segBytes is the distribution of DATA segment payload sizes.
	segBytes *metrics.Histogram
	// holStall is the distribution of head-of-line stall times: the
	// virtual time from buffering the first segment ahead of a gap to
	// the gap closing and the queue draining to the application. This
	// is the §5 cost ALF exists to remove — "a lost packet stops the
	// application, and since it is the bottleneck, it will never catch
	// up" — measured per stall.
	holStall *metrics.Histogram
}

// bindConnMetrics registers the connection's series, labeled by
// connection id plus any Config.MetricsLabels.
func bindConnMetrics(r *metrics.Registry, c *Conn) connMetrics {
	if r == nil {
		return connMetrics{}
	}
	lb := append([]string{fmt.Sprintf("conn=%d", c.cfg.ConnID)}, c.cfg.MetricsLabels...)
	metrics.BindStats(r, "otp", &c.Stats, lb...)
	r.GaugeFunc("otp.unacked_bytes", func() int64 { return int64(c.sndNxt - c.sndUna) }, lb...)
	r.GaugeFunc("otp.ooo_buffered_bytes", func() int64 { return int64(c.oooBytes) }, lb...)
	r.GaugeFunc("otp.srtt_ns", func() int64 { return int64(c.rtt.SRTT) }, lb...)
	return connMetrics{
		segBytes: r.Histogram("otp.segment_bytes", lb...),
		holStall: r.Histogram("otp.hol_stall_ns", lb...),
	}
}
