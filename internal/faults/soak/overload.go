package soak

import (
	"fmt"
	"time"

	alf "repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/tracing"
	"repro/internal/xcode"
)

// This file is the overload scenario family: no link ever fails, the
// network is simply asked for more than it has. Several ALF streams
// share one bottleneck trunk at an aggregate offered load well above
// its capacity, and the run checks the no-collapse invariants:
//
//   - Aggregate goodput stays at or above 70% of the bottleneck
//     capacity (or of the accepted load, whichever is smaller) — the
//     network keeps doing useful work instead of collapsing into
//     retransmission storms and tail drops.
//   - No Critical ADU is ever lost: load shedding and the recovery
//     cap sacrifice Droppable and throttle Standard traffic first.
//   - No ADU is delivered twice or corrupted.
//   - After submission stops the whole rig drains to quiescence:
//     pacer backlogs, link queues, reassembly buffers, and retention
//     all empty without livelock.
//
// Mode selects the sender stance: "closed" runs the full overload
// toolkit (feedback reports, AIMD rate control, priority shedding,
// recovery cap); "fixed" is the naive baseline that blasts at the
// offered rate with no feedback at all. The same invariants are
// evaluated either way — the point of the family is that closed-loop
// passes where fixed-rate demonstrably does not.

// OverloadConfig parameterizes one overload run. Zero fields take
// defaults.
type OverloadConfig struct {
	// Seed determines the run (queue tie-breaks, heartbeat jitter).
	Seed int64
	// Shape names the arrival pattern: "steady" (constant rate),
	// "burst" (on/off duty cycles, phase-shifted per stream), or
	// "flash" (a flash crowd: a third of the load arrives almost at
	// once, then steady). Default "steady".
	Shape string
	// Mode is "closed" (feedback + AIMD + shedding + recovery cap) or
	// "fixed" (open-loop at the offered rate). Default "closed".
	Mode string
	// Duration is the virtual horizon; submission occupies the first
	// 2/3 and the tail is quiet for drain (default 6 s).
	Duration sim.Duration
	// Metrics and Tracer, if non-nil, instrument the whole rig.
	Metrics *metrics.Registry
	Tracer  *tracing.Tracer
	// Recorder, if non-nil, flight-records the run (see Config.Recorder):
	// this is how the F10 contrast is replayed as rate-vs-time — the
	// AIMD backoff/probe sawtooth is invisible in totals.
	Recorder *telemetry.Recorder
}

func (c *OverloadConfig) fill() {
	if c.Recorder != nil && c.Metrics == nil {
		c.Metrics = metrics.New()
	}
	if c.Shape == "" {
		c.Shape = "steady"
	}
	if c.Mode == "" {
		c.Mode = "closed"
	}
	if c.Duration == 0 {
		c.Duration = 6 * time.Second
	}
}

// The overload family's fixed load: overloadStreams competing senders
// each offer overloadOfferedBps (three streams offer 18 Mb/s into the
// trunkRateBps bottleneck they share) in ADUs of overloadADUBytes
// (three fragments).
const (
	trunkRateBps       = 8e6
	overloadStreams    = 3
	overloadOfferedBps = 6e6
	overloadADUBytes   = 3000
)

// OverloadShapes lists the arrival patterns the family covers.
var OverloadShapes = []string{"steady", "burst", "flash"}

// aduClass is the deterministic priority mix: per ten ADUs, one
// Critical, three Standard, six Droppable — a control/keyframe/filler
// split. Both submission and loss accounting derive class from the
// name alone.
func aduClass(name uint64) alf.Priority {
	switch name % 10 {
	case 0:
		return alf.Critical
	case 1, 2, 3:
		return alf.Standard
	default:
		return alf.Droppable
	}
}

// submitAt places ADU i of `total` on one stream within the window.
func submitAt(shape string, stream, i, total int, window sim.Duration) sim.Duration {
	t := window * sim.Duration(i) / sim.Duration(total)
	switch shape {
	case "burst":
		// Eight duty cycles, each 2/3 on, 1/3 silent — the on-rate is
		// 1.5x the average. Streams are phase-shifted a third of a
		// period apart so bursts collide but not in lockstep.
		period := window / 8
		j := t / period
		t = j*period + (t-j*period)*2/3 + sim.Duration(stream)*period/3
	case "flash":
		// Flash crowd: 30% of the load lands in the first 8% of the
		// window, the rest is steady.
		f := total * 3 / 10
		if i < f {
			t = window * 8 / 100 * sim.Duration(i) / sim.Duration(f)
		} else {
			t = window/10 + window*9/10*sim.Duration(i-f)/sim.Duration(total-f)
		}
	}
	return t
}

// OverloadStream is one sender's accounting in an overload run.
type OverloadStream struct {
	StreamID       byte
	Submitted      int   // ADUs offered by the application
	Accepted       int   // ADUs the sender took onto the wire path
	Shed           int   // Droppable ADUs refused pre-transmission
	Delivered      int   // complete ADUs at the receiver
	Lost           int   // ADUs the receiver gave up on
	CriticalLost   int   // the invariant: must be zero
	AcceptedBytes  int64 // payload bytes behind Accepted
	DeliveredBytes int64 // payload bytes behind Delivered
	FinalRateBps   float64
	RateChanges    int64
	RetxSuppressed int64
}

// OverloadResult reports one overload run. Violations empty means
// every no-collapse invariant held.
type OverloadResult struct {
	verdict

	Mode    string
	Shape   string
	Seed    int64
	Horizon sim.Duration

	CapacityBps    float64
	OfferedBps     float64 // aggregate across streams
	GoodputBps     float64 // delivered payload over the submit window
	GoodputTarget  float64 // the 70% floor this run was held to
	AcceptedBytes  int64
	DeliveredBytes int64
	ShedADUs       int64
	TrunkDrops     int64 // bottleneck tail drops, both directions

	Streams     []OverloadStream
	DrainEvents uint64
	EndVirtual  sim.Time
}

// RunOverload executes one overload scenario to quiescence and returns
// the invariant report. It errors only on harness misconfiguration;
// congestion consequences are Violations, not errors.
func RunOverload(cfg OverloadConfig) (*OverloadResult, error) {
	cfg.fill()
	res := &OverloadResult{Mode: cfg.Mode, Shape: cfg.Shape, Seed: cfg.Seed,
		Horizon: cfg.Duration, CapacityBps: trunkRateBps,
		OfferedBps: overloadOfferedBps * overloadStreams}

	// ---- Topology: N sources and N sinks joined by one bottleneck.
	//
	//	src1 ─┐                        ┌─ dst1
	//	src2 ─┼─ rL ═══ bottleneck ═══ rR ─┼─ dst2
	//	src3 ─┘      (8 Mb/s, q=64)    └─ dst3
	//
	// Access links are clean and an order of magnitude faster than the
	// trunk; all contention lives in the shared queue.
	s := sim.NewScheduler()
	cfg.Tracer.Bind(s)
	cfg.Recorder.Bind(s, cfg.Metrics, sim.Time(0).Add(cfg.Duration))
	net := netsim.New(s, cfg.Seed)
	rL := net.NewRouter("rL")
	rR := net.NewRouter("rR")
	trunkCfg := netsim.LinkConfig{
		RateBps: trunkRateBps, Delay: 10 * time.Millisecond, QueueLimit: 64,
	}
	lr, rl := net.NewDuplex(rL.Node, rR.Node, trunkCfg)
	access := netsim.LinkConfig{RateBps: 100e6, Delay: 200 * time.Microsecond}

	net.SetMetrics(cfg.Metrics)
	net.SetTracer(cfg.Tracer)

	submitWindow := cfg.Duration * 2 / 3
	perStream := int(overloadOfferedBps / 8 * submitWindow.Seconds() / overloadADUBytes)
	if perStream < 1 {
		perStream = 1
	}

	res.Streams = make([]OverloadStream, overloadStreams)

	leds := make([]*ledger, overloadStreams)

	for i := 0; i < overloadStreams; i++ {
		id := byte(i + 1)
		src := net.NewNode(fmt.Sprintf("src%d", id))
		dst := net.NewNode(fmt.Sprintf("dst%d", id))
		up, down := net.NewDuplex(src, rL.Node, access)
		dUp, dDown := net.NewDuplex(dst, rR.Node, access)
		rL.AddRoute(dst, lr)
		rL.AddRoute(src, down)
		rR.AddRoute(src, rl)
		rR.AddRoute(dst, dDown)

		aCfg := alf.Config{
			StreamID:          id,
			Policy:            alf.SenderBuffered,
			RateBps:           overloadOfferedBps,
			NackDelay:         10 * time.Millisecond,
			NackInterval:      20 * time.Millisecond,
			HoldTime:          2 * time.Second,
			MaxNacks:          8,
			HeartbeatInterval: 25 * time.Millisecond,
			HeartbeatLimit:    1 << 30,
			Metrics:           cfg.Metrics,
			Tracer:            cfg.Tracer,
		}
		if cfg.Mode == "closed" {
			aCfg.FeedbackInterval = 50 * time.Millisecond
			aCfg.Controller = &alf.AIMD{
				Floor: 256e3, Ceil: overloadOfferedBps, ProbeBps: 2e5,
			}
			aCfg.ShedBacklog = 150 * time.Millisecond
			aCfg.ShedLossFrac = 0.25
			aCfg.RecoveryFrac = 0.25
		}

		snd, rcv, err := alf.Connect(s, src, dst, up, dUp, aCfg)
		if err != nil {
			return nil, err
		}

		acct := &res.Streams[i]
		acct.StreamID = id
		led := newLedger(&res.verdict, fmt.Sprintf("stream %d: ", id), overloadADUBytes, snd, rcv)
		leds[i] = led

		rcv.OnADU = func(adu alf.ADU) {
			if led.deliver(adu) {
				acct.Delivered++
				acct.DeliveredBytes += int64(len(adu.Data))
			}
		}
		// The overload policy: shedding and the recovery cap may cost
		// Droppable and Standard ADUs, never a Critical one.
		rcv.OnLost = func(name uint64) {
			acct.Lost++
			if k, known := led.lose(name); known && aduClass(k) == alf.Critical {
				acct.CriticalLost++
				res.violatef("stream %d: Critical ADU %d lost under overload", id, name)
			}
		}

		// ---- Workload: perStream ADUs shaped over the submit window.
		for k := 0; k < perStream; k++ {
			k := uint64(k)
			s.After(submitAt(cfg.Shape, i, int(k), perStream, submitWindow), func() {
				acct.Submitted++
				class := aduClass(k)
				name, err := snd.SendClass(aduTag(k), xcode.SyntaxRaw,
					aduPayload(k, overloadADUBytes), class)
				switch {
				case err == nil:
					led.accept(name, k)
					acct.Accepted++
					acct.AcceptedBytes += int64(overloadADUBytes)
				case err == alf.ErrShed && class == alf.Droppable:
					acct.Shed++
				default:
					res.violatef("stream %d: Send(%d) failed: %v", id, k, err)
				}
			})
		}
	}

	// ---- Run to the horizon, then drain to quiescence with the same
	// livelock bounds as the fault soak.
	res.DrainEvents, res.EndVirtual = res.drain(s, cfg.Duration, 15*time.Second, cfg.Recorder)

	// ---- Aggregate accounting and invariants.
	for i, led := range leds {
		a := &res.Streams[i]
		a.ShedADUsConsistency(res)
		a.FinalRateBps = led.snd.Rate()
		a.RateChanges = led.snd.Stats.RateChanges
		a.RetxSuppressed = led.snd.Stats.RetxSuppressed
		res.AcceptedBytes += a.AcceptedBytes
		res.DeliveredBytes += a.DeliveredBytes
		res.ShedADUs += led.snd.Stats.ShedADUs
		led.settle(false)
	}
	res.quiesced(net, leds...)
	res.TrunkDrops = lr.Stats.QueueDrops + rl.Stats.QueueDrops

	// Goodput floor: delivered payload over the submit window must
	// reach 70% of the lesser of bottleneck capacity and the load the
	// senders actually accepted — shedding the Droppable tier is
	// legitimate, delivering under 70% of capacity is collapse.
	winSec := submitWindow.Seconds()
	res.GoodputBps = float64(res.DeliveredBytes) * 8 / winSec
	capBps := res.CapacityBps
	if accepted := float64(res.AcceptedBytes) * 8 / winSec; accepted < capBps {
		capBps = accepted
	}
	res.GoodputTarget = 0.7 * capBps
	if res.GoodputBps < res.GoodputTarget {
		res.violatef("goodput %.2f Mb/s under the %.2f Mb/s no-collapse floor (capacity %.0f Mb/s)",
			res.GoodputBps/1e6, res.GoodputTarget/1e6, res.CapacityBps/1e6)
	}
	noteViolations(cfg.Recorder, res.Violations)
	return res, nil
}

// ShedADUsConsistency cross-checks the application-side shed count
// against submission accounting: every submitted ADU was accepted or
// shed, and only Droppables were shed.
func (a *OverloadStream) ShedADUsConsistency(res *OverloadResult) {
	if a.Accepted+a.Shed != a.Submitted {
		res.violatef("stream %d: accepted %d + shed %d != submitted %d",
			a.StreamID, a.Accepted, a.Shed, a.Submitted)
	}
}
