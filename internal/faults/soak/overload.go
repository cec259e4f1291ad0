package soak

import (
	"fmt"
	"time"

	alf "repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/sim"
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
	// Planes instrument the run. The flight recorder is how the F10
	// contrast is replayed as rate-vs-time — the AIMD backoff/probe
	// sawtooth is invisible in totals.
	Planes
}

func (c *OverloadConfig) fill() {
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

	Streams []OverloadStream
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
	r := newRig(&res.verdict, cfg.Planes, cfg.Seed, cfg.Duration)
	net := r.net
	rL := net.NewRouter("rL")
	rR := net.NewRouter("rR")
	trunkCfg := netsim.LinkConfig{
		RateBps: trunkRateBps, Delay: 10 * time.Millisecond, QueueLimit: 64,
	}
	lr, rl := net.NewDuplex(rL.Node, rR.Node, trunkCfg)
	access := netsim.LinkConfig{RateBps: 100e6, Delay: 200 * time.Microsecond}

	submitWindow := cfg.Duration * 2 / 3
	perStream := int(overloadOfferedBps / 8 * submitWindow.Seconds() / overloadADUBytes)
	if perStream < 1 {
		perStream = 1
	}

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

		// The overload policy: shedding and the recovery cap may cost
		// Droppable and Standard ADUs, never a Critical one.
		led, err := r.connect(fmt.Sprintf("stream %d: ", id), overloadADUBytes, src, dst, up, dUp, aCfg)
		if err != nil {
			return nil, err
		}
		led.protectCritical("under overload")

		// ---- Workload: perStream ADUs shaped over the submit window.
		r.offer(led, perStream, func(k int) sim.Duration {
			return submitAt(cfg.Shape, i, k, perStream, submitWindow)
		}, aduClass)
	}

	// ---- Run to the horizon, then drain to quiescence with the same
	// livelock bounds as the fault soak.
	r.finish(15*time.Second, func() {
		for i, led := range r.streams {
			st := OverloadStream{
				StreamID:       byte(i + 1),
				Submitted:      led.submitted,
				Accepted:       len(led.accepted),
				Shed:           led.shed,
				Delivered:      led.good,
				Lost:           led.lostCalls,
				CriticalLost:   led.criticalLost,
				AcceptedBytes:  int64(len(led.accepted)) * overloadADUBytes,
				DeliveredBytes: led.goodBytes,
				FinalRateBps:   led.snd.Rate(),
				RateChanges:    led.snd.Stats.RateChanges,
				RetxSuppressed: led.snd.Stats.RetxSuppressed,
			}
			// Every submitted ADU was accepted or shed, and only
			// Droppables were shed.
			if st.Accepted+st.Shed != st.Submitted {
				res.violatef("stream %d: accepted %d + shed %d != submitted %d",
					st.StreamID, st.Accepted, st.Shed, st.Submitted)
			}
			res.Streams = append(res.Streams, st)
			res.AcceptedBytes += st.AcceptedBytes
			res.DeliveredBytes += st.DeliveredBytes
			res.ShedADUs += led.snd.Stats.ShedADUs
			led.settle(false)
		}
	}, func() {
		res.TrunkDrops = lr.Stats.QueueDrops + rl.Stats.QueueDrops

		// Goodput floor: delivered payload over the submit window must
		// reach 70% of the lesser of bottleneck capacity and the load
		// the senders actually accepted — shedding the Droppable tier
		// is legitimate, delivering under 70% of capacity is collapse.
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
	})
	return res, nil
}
