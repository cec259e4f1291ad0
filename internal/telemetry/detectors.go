package telemetry

import (
	"fmt"
	"strings"

	"repro/internal/sim"
)

// finding is one series a detector considers unhealthy this tick. The
// recorder edge-triggers these into Incidents: one incident when the
// finding first appears, one "cleared" incident when it stops.
type finding struct {
	series  string
	message string
}

// Detector is a health check evaluated at the end of every sampling
// tick against the recorded history, and the one rule behind every row
// of the catalog: every labeled variant of one metric — its per-second
// rate if it is a counter, its level if it is a gauge — is compared
// each tick with a limit (a companion gauge carrying the same labels
// when there is one, else a static value) scaled by a fraction, and a
// variant that has stood at or past it for some consecutive ticks is a
// finding. A collapse rule reads the other way: a variant that has once
// reached its limit and then stood below it. A rule with no positive
// limit is dormant. DefaultDetectors holds the rows. A detector keeps
// per-series state (consecutive-tick counters, arming latches) and is
// therefore owned by a single Recorder.
type Detector struct {
	name        string
	series      string
	limitSeries string  // companion gauge, matched label for label; "" for none
	limit       float64 // static limit, and the fallback for limitSeries
	frac        float64
	ticks       int
	collapse    bool
	say         func(v, limit float64, ticks int) string

	armed map[string]bool // collapse rules: the series has been healthy
	run   map[string]int  // consecutive ticks the series has been unhealthy
}

// check returns this tick's findings. It enumerates series through the
// recorder's ordered accessor (MatchName), so findings come out in
// deterministic order.
func (d *Detector) check(r *Recorder) []finding {
	if d.run == nil {
		d.armed, d.run = make(map[string]bool), make(map[string]int)
	}
	var out []finding
	for _, s := range r.MatchName(d.series) {
		var v float64
		switch {
		case s.Kind == Delta:
			v = r.LastRate(s)
		case s.Kind == Level && s.Len() > 0:
			v = float64(s.Last())
		default:
			continue
		}
		limit := d.limit
		if d.limitSeries != "" {
			if ls := r.Series(d.limitSeries + strings.TrimPrefix(s.ID, d.series)); ls != nil && ls.Last() > 0 {
				limit = float64(ls.Last())
			}
		}
		if limit <= 0 {
			continue
		}
		unhealthy := v >= d.frac*limit
		if d.collapse {
			d.armed[s.ID] = d.armed[s.ID] || unhealthy
			unhealthy = !unhealthy && d.armed[s.ID]
		}
		if unhealthy {
			d.run[s.ID]++
		} else {
			d.run[s.ID] = 0
		}
		if n := d.run[s.ID]; n >= d.ticks {
			out = append(out, finding{series: s.ID, message: d.say(v, limit, n)})
		}
	}
	return out
}

// nearFull is the fraction of a capacity limit at which the occupancy
// rules (custody store, link queue) fire.
const nearFull = 0.9

// DefaultDetectors is the standard catalog the chaos harnesses wire
// in: delivery-rate collapse (an AIMD source backing off to nothing, a
// path going dark), custody-store and link-queue capacity pressure,
// shed storms (sustained overload, not an isolated burst), and
// heartbeat-backoff saturation (a sender coasting at its ceiling, which
// on a DTN path marks the depth of a blackout). Zero-valued inputs
// leave the corresponding detector dormant (capacity detectors still
// pick up per-series limit gauges when registered).
func DefaultDetectors(deliveryFloorPerSec float64, storeLimit, queueLimit int64, hbCeil sim.Duration) []*Detector {
	return []*Detector{
		{name: "rate-collapse", series: "core.recv.delivered_bytes",
			limit: deliveryFloorPerSec, frac: 1, ticks: 3, collapse: true,
			say: func(v, limit float64, n int) string {
				return fmt.Sprintf("rate %.0f/s below floor %.0f/s for %d ticks", v, limit, n)
			}},
		{name: "near-capacity", series: "relay.stored_bytes", limitSeries: "relay.storage_limit_bytes",
			limit: float64(storeLimit), frac: nearFull, ticks: 1,
			say: func(v, limit float64, _ int) string {
				return fmt.Sprintf("occupancy %.0f of limit %.0f (>= %.0f%%)", v, limit, nearFull*100)
			}},
		{name: "shed-storm", series: "core.send.shed_adus",
			limit: 50, frac: 1, ticks: 2,
			say: func(v, _ float64, n int) string {
				return fmt.Sprintf("shedding %.0f ADUs/s for %d ticks", v, n)
			}},
		{name: "queue-saturation", series: "netsim.link.queue_depth", limitSeries: "netsim.link.queue_limit",
			limit: float64(queueLimit), frac: nearFull, ticks: 3,
			say: func(v, limit float64, n int) string {
				return fmt.Sprintf("queue depth %.0f of limit %.0f for %d ticks", v, limit, n)
			}},
		{name: "backoff-saturation", series: "core.send.heartbeat_interval_ns",
			limit: float64(hbCeil), frac: 1, ticks: 1,
			say: func(v, limit float64, _ int) string {
				return fmt.Sprintf("heartbeat backoff %v at ceiling %v", sim.Duration(v), sim.Duration(limit))
			}},
	}
}
