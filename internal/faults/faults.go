// Package faults is the fault-injection scheduler: it mutates netsim
// state at scheduled points in virtual time, driven by the same
// sim.Scheduler as the traffic it disturbs, so every failure scenario
// is deterministic from (code, seed).
//
// The paper argues a new generation of protocols must be engineered for
// the failures networks actually exhibit — §3's "detecting network
// transmission problems" lists lost, duplicated, reordered and damaged
// data, and its fate-sharing discussion assumes paths that vanish
// outright. netsim produces the per-packet impairments; this package
// produces the *temporal* ones: links that flap, go dark, degrade, or
// partition the topology, and later heal. Recovery machinery above
// (alf, otp) is exercised by the transitions, not just the steady
// state.
//
// Four primitives compose every scenario:
//
//	Blackout   links down for a contiguous window
//	Flap       repeated short down/up cycles
//	Degrade    config swap (raised loss, stretched delay), later restored
//	Partition  the cut set between two node groups severed, then healed
//
// Overlapping faults on one link are refcounted: the link is down until
// the *last* overlapping window ends, and a degraded link's original
// config is restored only when the last degrade lifts. Scenario presets
// (Preset) bundle the primitives into named shapes shared by the soak
// harness and cmd/alfchaos.
package faults

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/tracing"
)

// Stats counts injected fault events.
type Stats struct {
	Blackouts  int64 `metric:"blackouts"`   // blackout windows begun
	FlapCycles int64 `metric:"flap_cycles"` // completed down/up flap cycles
	Degrades   int64 `metric:"degrades"`    // degrade windows begun
	Partitions int64 `metric:"partitions"`  // partition windows begun
	DownEvents int64 `metric:"down_events"` // links actually transitioned down
	Heals      int64 `metric:"heals"`       // links actually transitioned back up
	Restores   int64 `metric:"restores"`    // link configs restored after degrade
}

// Injector schedules fault events on a scheduler and applies them to
// links. One injector may drive any number of concurrent scenarios;
// per-link refcounts keep overlapping windows coherent.
type Injector struct {
	sched *sim.Scheduler
	rng   *sim.Rand

	// downCount refcounts administrative-down requests per link; the
	// link is up only while its count is zero.
	downCount map[*netsim.Link]int
	// degraded remembers the pre-degrade config and a refcount; the
	// original is restored when the last overlapping degrade ends.
	degraded map[*netsim.Link]*degradeState

	tracer *tracing.Tracer

	Stats Stats
}

// SetTracer binds the injector to the span recorder: every fault
// window (blackout, flap cycle, degrade, partition) becomes a span on
// the "faults" track, and drops on the affected links while the
// window is open link back to it causally. Nil disables (the default).
func (in *Injector) SetTracer(t *tracing.Tracer) { in.tracer = t }

// linkLabels collects the tracer track names of links so a fault
// window can be tied to the drops it causes.
func linkLabels(links []*netsim.Link) []string {
	names := make([]string, len(links))
	for i, l := range links {
		names[i] = l.Label()
	}
	return names
}

type degradeState struct {
	orig  netsim.LinkConfig
	count int
}

// New creates an injector on sched with its own deterministic RNG.
// The RNG is private to the injector, so randomized fault schedules do
// not perturb the draw sequence of the network under test.
func New(sched *sim.Scheduler, seed int64) *Injector {
	return &Injector{
		sched:     sched,
		rng:       sim.NewRand(seed),
		downCount: make(map[*netsim.Link]int),
		degraded:  make(map[*netsim.Link]*degradeState),
	}
}

// BindMetrics registers the injector's event counters and an
// active-fault gauge with the unified registry.
func (in *Injector) BindMetrics(r *metrics.Registry, labels ...string) {
	if r == nil {
		return
	}
	metrics.BindStats(r, "faults", &in.Stats, labels...)
	r.GaugeFunc("faults.links_down", func() int64 {
		var n int64
		for _, c := range in.downCount {
			if c > 0 {
				n++
			}
		}
		return n
	}, labels...)
}

// Active reports whether any injected fault is still in effect (a link
// held down or a config still degraded). Scenarios are built so this is
// false by the end of their horizon; invariant checks assert it.
func (in *Injector) Active() bool {
	for _, c := range in.downCount {
		if c > 0 {
			return true
		}
	}
	return len(in.degraded) > 0
}

// down acquires one down-reference on l, taking the link down on the
// first.
func (in *Injector) down(l *netsim.Link) {
	in.downCount[l]++
	if in.downCount[l] == 1 {
		l.SetDown(true)
		in.Stats.DownEvents++
	}
}

// up releases one down-reference on l, bringing the link up on the
// last.
func (in *Injector) up(l *netsim.Link) {
	if in.downCount[l] == 0 {
		return // unmatched release: a scenario bug, but never flap a live link
	}
	in.downCount[l]--
	if in.downCount[l] == 0 {
		l.SetDown(false)
		in.Stats.Heals++
	}
}

// Blackout takes links down at start (relative to now) and back up at
// start+duration. Queued-packet fate follows each link's DownPolicy.
func (in *Injector) Blackout(links []*netsim.Link, start, duration sim.Duration) {
	links = append([]*netsim.Link(nil), links...)
	var flow uint64
	in.sched.After(start, func() {
		in.Stats.Blackouts++
		flow = in.tracer.FaultBegan("blackout", linkLabels(links))
		for _, l := range links {
			in.down(l)
		}
	})
	in.sched.After(start+duration, func() {
		for _, l := range links {
			in.up(l)
		}
		in.tracer.FaultEnded(flow)
	})
}

// Conjunction schedules count repeated blackout windows: dark for
// dark, then passable for bright, starting at start. It models a solar
// conjunction — or any predictable occultation (orbiters dipping
// behind a planet, a rotating ground station) — where a deep-space
// link goes unusable on a schedule rather than once. Each dark window
// is an ordinary Blackout, so overlapping faults still compose via the
// per-link refcounts and the links are up after the final window.
func (in *Injector) Conjunction(links []*netsim.Link, start, dark, bright sim.Duration, count int) {
	period := dark + bright
	for i := 0; i < count; i++ {
		in.Blackout(links, start+sim.Duration(i)*period, dark)
	}
}

// Flap runs cycles of (down for downFor, up for upFor) on links,
// beginning at start. The links are guaranteed up after the last cycle.
func (in *Injector) Flap(links []*netsim.Link, start, downFor, upFor sim.Duration, cycles int) {
	links = append([]*netsim.Link(nil), links...)
	period := downFor + upFor
	for i := 0; i < cycles; i++ {
		at := start + sim.Duration(i)*period
		var flow uint64
		in.sched.After(at, func() {
			flow = in.tracer.FaultBegan("flap", linkLabels(links))
			for _, l := range links {
				in.down(l)
			}
		})
		in.sched.After(at+downFor, func() {
			in.Stats.FlapCycles++
			for _, l := range links {
				in.up(l)
			}
			in.tracer.FaultEnded(flow)
		})
	}
}

// Degrade swaps each link's config through mutate at start and restores
// the original at start+duration. Overlapping degrades of one link
// stack: the config seen by traffic is the most recent mutation, and
// the pre-fault original returns when the last window ends.
func (in *Injector) Degrade(links []*netsim.Link, mutate func(netsim.LinkConfig) netsim.LinkConfig,
	start, duration sim.Duration) {
	links = append([]*netsim.Link(nil), links...)
	var flow uint64
	in.sched.After(start, func() {
		in.Stats.Degrades++
		flow = in.tracer.FaultBegan("degrade", linkLabels(links))
		for _, l := range links {
			st := in.degraded[l]
			if st == nil {
				st = &degradeState{orig: l.Config()}
				in.degraded[l] = st
			}
			st.count++
			l.UpdateConfig(mutate(l.Config()))
		}
	})
	in.sched.After(start+duration, func() {
		for _, l := range links {
			st := in.degraded[l]
			if st == nil {
				continue
			}
			st.count--
			if st.count == 0 {
				l.UpdateConfig(st.orig)
				delete(in.degraded, l)
				in.Stats.Restores++
			}
		}
		in.tracer.FaultEnded(flow)
	})
}

// Partition severs every link between node groups a and b (the cut set
// per Network.LinksBetween) at start and heals it at start+duration.
func (in *Injector) Partition(net *netsim.Network, a, b []*netsim.Node, start, duration sim.Duration) {
	cut := net.LinksBetween(a, b)
	var flow uint64
	in.sched.After(start, func() {
		in.Stats.Partitions++
		flow = in.tracer.FaultBegan("partition", linkLabels(cut))
		for _, l := range cut {
			in.down(l)
		}
	})
	in.sched.After(start+duration, func() {
		for _, l := range cut {
			in.up(l)
		}
		in.tracer.FaultEnded(flow)
	})
}

// Targets names the topology pieces scenario presets manipulate. Trunk
// is the shared bottleneck (both directions); Forward is its
// data-bearing direction only, so a forward-only fault leaves the
// reverse control path (ACKs, NACKs) alive. GroupA/GroupB are the node
// groups a partition severs.
type Targets struct {
	Net            *netsim.Network
	Trunk          []*netsim.Link
	Forward        []*netsim.Link
	GroupA, GroupB []*netsim.Node
}

// ScenarioNames lists the Preset names in a stable order.
var ScenarioNames = []string{"flap", "blackout", "degrade", "partition", "random"}

// Preset schedules one named fault scenario over horizon. Every preset
// concentrates its faults in the early and middle of the horizon and
// guarantees full heal with a quiet tail, so a run of the scheduler to
// the horizon can assert post-heal recovery.
//
//	flap       the forward trunk direction flaps 4 times (control path
//	           stays up — asymmetric outage)
//	blackout   the whole trunk goes dark for a third of the horizon
//	degrade    trunk loss raised to 20% and delay x4 for half the horizon
//	partition  the cut set between GroupA and GroupB severed for a third
//	random     a seeded composition of the above at random times/widths
func (in *Injector) Preset(name string, t Targets, horizon sim.Duration) error {
	switch name {
	case "flap":
		cycle := horizon / 16
		in.Flap(t.Forward, horizon/8, cycle/2, cycle, 4)
	case "blackout":
		in.Blackout(t.Trunk, horizon/8, horizon/3)
	case "degrade":
		in.Degrade(t.Trunk, func(cfg netsim.LinkConfig) netsim.LinkConfig {
			cfg.LossProb = 0.2
			cfg.Delay *= 4
			return cfg
		}, horizon/8, horizon/2)
	case "partition":
		in.Partition(t.Net, t.GroupA, t.GroupB, horizon/8, horizon/3)
	case "random":
		in.randomSchedule(t, horizon)
	default:
		return fmt.Errorf("faults: unknown scenario %q (have %v)", name, ScenarioNames)
	}
	return nil
}

// randomSchedule composes 3-6 randomized faults inside the first two
// thirds of the horizon, each short enough to end before the quiet
// tail. Same seed, same schedule.
func (in *Injector) randomSchedule(t Targets, horizon sim.Duration) {
	n := 3 + in.rng.Intn(4)
	window := horizon * 2 / 3
	for i := 0; i < n; i++ {
		start := sim.Duration(in.rng.Int63() % int64(window))
		most := window - start
		if lim := horizon / 4; most > lim {
			most = lim
		}
		// Durations in [most/8, most]: long enough to matter, bounded so
		// every fault heals inside the window.
		dur := most/8 + sim.Duration(in.rng.Int63()%int64(most-most/8+1))
		switch in.rng.Intn(4) {
		case 0:
			cycles := 2 + in.rng.Intn(3)
			period := dur / sim.Duration(cycles)
			in.Flap(t.Forward, start, period/3, period-period/3, cycles)
		case 1:
			in.Blackout(t.Trunk, start, dur)
		case 2:
			loss := 0.05 + 0.25*in.rng.Float64()
			in.Degrade(t.Trunk, func(cfg netsim.LinkConfig) netsim.LinkConfig {
				cfg.LossProb = loss
				cfg.Delay *= 2
				return cfg
			}, start, dur)
		case 3:
			in.Partition(t.Net, t.GroupA, t.GroupB, start, dur)
		}
	}
}
