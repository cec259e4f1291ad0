package soak

import (
	"fmt"
	"time"

	alf "repro/internal/core"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/relay"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/wire"
	"repro/internal/xcode"
)

// This file is the DTN scenario family: a three-hop interplanetary
// path with an eight-minute one-way delay whose middle hop goes dark
// for tens of minutes at a time (solar conjunction). The run checks
// the delay-tolerant invariants:
//
//   - Every Critical ADU is delivered exactly once, blackouts and all.
//   - Custody-relay storage never exceeds its configured bound.
//   - After submission stops the whole rig drains to quiescence:
//     custody stores, sender retention, reassembly state, and link
//     queues all empty without livelock.
//   - No ADU is delivered twice or corrupted (both modes).
//
// Mode selects the stance: "custody" staffs both intermediate nodes
// with custody-transfer relays (internal/relay) and paces the sender
// with the model-based WindowedRate controller; "aimd" is the
// end-to-end baseline — the same nodes merely forward, and the sender
// runs the loss-driven AIMD controller that serves terrestrial paths
// well. The same invariants are evaluated either way: the point of
// the family is that custody+model passes where the end-to-end
// stance demonstrably does not — sender retention expires during
// blackout+RTT recovery loops (Critical ADUs lost), and one
// stale loss report collapses the AIMD rate for hours of virtual
// time.

// The DTN scenario's fixed shape.
const (
	// dtnHorizon is the virtual horizon; submission occupies the first
	// half and the tail is quiet for recovery and drain.
	dtnHorizon = 4 * time.Hour
	// dtnHopDelay is the one-way delay of each of the three hops, so the
	// path is 8 min one way / 16 min RTT.
	dtnHopDelay = 160 * time.Second
	// dtnADUBytes sizes each ADU.
	dtnADUBytes = 32 << 10
	// dtnCount ADUs are submitted: one every 30 s of the 2 h window.
	dtnCount = 240
	// dtnStorageLimit bounds each relay's custody store: far below a
	// blackout's worth of traffic, so eviction must engage, but
	// comfortably above the Critical tier's total footprint.
	dtnStorageLimit = 2 << 20
)

// DTNConfig parameterizes one DTN run. Zero fields take defaults.
type DTNConfig struct {
	// Seed determines the run (loss draws, heartbeat jitter).
	Seed int64
	// Mode is "custody" (relays + WindowedRate) or "aimd" (plain
	// forwarding + AIMD). Default "custody".
	Mode string
	// Metrics, if non-nil, instruments the whole rig.
	Metrics *metrics.Registry
	// Recorder, if non-nil, flight-records the run (see Config.Recorder).
	// An interval of minutes suits the multi-hour horizon: the default
	// 512-sample ring then spans both conjunction windows.
	Recorder *telemetry.Recorder
}

func (c *DTNConfig) fill() {
	if c.Recorder != nil && c.Metrics == nil {
		c.Metrics = metrics.New()
	}
	if c.Mode == "" {
		c.Mode = "custody"
	}
}

// DTNModes lists the stances the family contrasts.
var DTNModes = []string{"custody", "aimd"}

// DTNResult reports one DTN run. Violations empty means every
// delay-tolerant invariant held.
type DTNResult struct {
	verdict

	Mode    string
	Seed    int64
	Horizon sim.Duration

	Submitted    int
	Delivered    int // distinct ADUs at the receiver
	CriticalLost int // the invariant: must be zero
	LostADUs     int // receiver gave up (any class)
	GoodputBps   float64
	FinalRateBps float64

	// Custody-plane accounting (zero in aimd mode).
	RelayPeakBytes  int64 // max over both relays; must stay <= bound
	RelayEvicted    int64
	RelayShed       int64
	RelayRetxADUs   int64
	NacksAnswered   int64 // recovery served one hop away
	CustodyReleased int64 // sender retention freed by custody transfer

	// End-to-end stress markers (what the baseline dies of).
	DeadlineDrops int64 // sender retention expired unconfirmed
	UnfilledNacks int64 // recovery requests nobody could answer

	DrainEvents uint64
	EndVirtual  sim.Time
}

// RunDTN executes one DTN scenario to quiescence and returns the
// invariant report. It errors only on harness misconfiguration; the
// baseline's losses are Violations, not errors.
func RunDTN(cfg DTNConfig) (*DTNResult, error) {
	cfg.fill()
	res := &DTNResult{Mode: cfg.Mode, Seed: cfg.Seed, Horizon: dtnHorizon}

	// ---- Topology: a three-hop chain. All custody action is on the
	// intermediate nodes; the middle hop is the one conjunction takes.
	//
	//	src ══h1══ r1 ══h2══ r2 ══h3══ dst
	//	          (relay)  (relay)
	//	              └─ 2x 40-min blackout
	s := sim.NewScheduler()
	cfg.Recorder.Bind(s, cfg.Metrics, sim.Time(0).Add(dtnHorizon))
	net := netsim.New(s, cfg.Seed)
	src := net.NewNode("src")
	r1 := net.NewNode("r1")
	r2 := net.NewNode("r2")
	dst := net.NewNode("dst")

	// Deep pipes: at these delays the constraint is the pipe, not a
	// queue (netsim holds a link's packets in flight in a per-link
	// transit FIFO, off the scheduler heap), so queues are unbounded and
	// the only impairments are the middle hop's residual loss and the
	// conjunction blackouts.
	hop := func(loss float64) netsim.LinkConfig {
		return netsim.LinkConfig{RateBps: 2e6, Delay: dtnHopDelay, LossProb: loss}
	}
	h1, h1r := net.NewDuplex(src, r1, hop(0))
	h2, h2r := net.NewDuplex(r1, r2, hop(0.005))
	h3, h3r := net.NewDuplex(r2, dst, hop(0))

	net.SetMetrics(cfg.Metrics)

	// ---- Endpoints. The DTN parameter scale: NACK cadences in
	// minutes, retention deadlines under an hour, heartbeat backoff up
	// to an hour — the overflow-guard regime.
	aCfg := alf.Config{
		Policy:  alf.SenderBuffered,
		RateBps: 1e6,
		// NACK pacing vs giving up: with exponential backoff the n-th
		// NACK waits NackDelay<<n, so MaxNacks 4 at a 4-minute base
		// means recovery is attempted for about an hour and the
		// receiver abandons an ADU roughly HoldTime after noticing it
		// — the abandonment horizon must fit the drain bound below.
		NackDelay:            4 * time.Minute,
		NackInterval:         4 * time.Minute,
		HoldTime:             2 * time.Hour,
		MaxNacks:             4,
		HeartbeatInterval:    5 * time.Minute,
		HeartbeatMaxInterval: time.Hour,
		HeartbeatLimit:       1 << 30,
		ADUDeadline:          45 * time.Minute,
		FeedbackInterval:     2 * time.Minute,
		// Shedding is the overload family's mechanism; here it would
		// only blur the custody/rate contrast, so it is parked.
		ShedBacklog:  time.Hour,
		ShedLossFrac: 1,
		Metrics:      cfg.Metrics,
	}
	switch cfg.Mode {
	case "custody":
		aCfg.Custody = true
		aCfg.Controller = &alf.WindowedRate{
			Floor: 128e3, Ceil: 2e6,
			// A couple of idle feedback intervals is a slow path; a
			// report aged past the RTT plus slack means the path was
			// gone, not slow.
			StaleAfter: 20 * time.Minute,
		}
	case "aimd":
		aCfg.Controller = &alf.AIMD{Floor: 128e3, Ceil: 2e6}
	default:
		return nil, fmt.Errorf("dtn: unknown mode %q", cfg.Mode)
	}

	snd, rcv, err := alf.Connect(s, src, dst, h1, h3r, aCfg)
	if err != nil {
		return nil, err
	}

	// ---- The intermediate nodes: custody relays, or plain forwarders
	// for the baseline.
	var relays []*relay.Relay
	if cfg.Mode == "custody" {
		rCfg := relay.Config{
			StorageLimit: dtnStorageLimit,
			CustodyTimer: 2 * time.Minute,
			// The slow backstop for a lost heal burst: well above the
			// downstream round trip.
			RetryInterval: 30 * time.Minute,
			HealPoll:      30 * time.Second,
			Metrics:       cfg.Metrics,
		}
		c1, c2 := rCfg, rCfg
		c1.Name, c1.RelayID = "r1", 1
		c2.Name, c2.RelayID = "r2", 2
		rl1, err := relay.New(s, r1, h1r, h2, c1)
		if err != nil {
			return nil, err
		}
		rl2, err := relay.New(s, r2, h2r, h3, c2)
		if err != nil {
			return nil, err
		}
		relays = []*relay.Relay{rl1, rl2}
	} else {
		// Baseline forwarding: data-plane frames toward the receiver,
		// control-plane frames toward the sender, zero-copy either way.
		fwd := func(up, down *netsim.Link) netsim.Handler {
			return func(p *netsim.Packet) {
				switch wire.TypeOf(p.Payload) {
				case wire.TypeCtrl, wire.TypeFB, wire.TypeCA:
					_ = up.SendRef(p.Retain())
				default:
					_ = down.SendRef(p.Retain())
				}
			}
		}
		r1.SetHandler(fwd(h1r, h2))
		r2.SetHandler(fwd(h2r, h3))
	}

	// ---- Conjunction: two 40-minute blackouts of the middle hop,
	// 30 minutes of daylight between, starting half an hour in. Both
	// directions die — data, NACKs, feedback, and custody acks for the
	// downstream leg all stop.
	in := faults.New(s, cfg.Seed)
	in.Conjunction([]*netsim.Link{h2, h2r}, 30*time.Minute, 40*time.Minute, 30*time.Minute, 2)

	// ---- Workload: dtnCount ADUs paced evenly over the first half of
	// the horizon, deterministic payloads, the standard priority mix
	// (one Critical per ten).
	led := newLedger(&res.verdict, "", []int{dtnADUBytes}, snd, rcv)
	res.Submitted = dtnCount

	rcv.OnADU = func(adu alf.ADU) {
		if led.deliver(adu) {
			res.Delivered++
		}
	}
	rcv.OnLost = func(name uint64) {
		res.LostADUs++
		if k, known := led.lose(name); known && aduClass(k) == alf.Critical {
			res.CriticalLost++
			res.violatef("Critical ADU %d lost across the blackout", name)
		}
	}

	window := dtnHorizon / 2
	for k := 0; k < dtnCount; k++ {
		k := uint64(k)
		s.After(window*sim.Duration(k)/dtnCount, func() {
			name, err := snd.SendClass(aduTag(k), xcode.SyntaxRaw, led.payload(k), aduClass(k))
			if err != nil {
				res.violatef("Send(%d) failed: %v", k, err)
				return
			}
			led.accept(name, k)
		})
	}

	// ---- Run to the horizon, then drain. The drain allowance is
	// hours of virtual time: HoldTime-scale give-up timers are part of
	// normal DTN operation, not livelock.
	res.DrainEvents, res.EndVirtual = res.drain(s, dtnHorizon, 3*time.Hour, cfg.Recorder)

	// ---- Invariants. The DTN policy: every Critical ADU is delivered
	// exactly once, no matter what the conjunction did. (OnLost catches
	// the explicit give-up; this catches ADUs that silently never
	// arrived.)
	led.settle(false)
	for _, name := range led.names() {
		if aduClass(led.accepted[name]) == alf.Critical && led.delivered[name] != 1 {
			res.violatef("Critical ADU %d delivered %d times, want exactly once", name, led.delivered[name])
		}
	}

	// Clean drain: nothing retained, stored, pending, or queued.
	res.quiesced(net.Links(), led)

	// Custody plane: bounded storage, drained stores.
	for _, rl := range relays {
		if rl.Stats.MaxStoredBytes > dtnStorageLimit {
			res.violatef("relay custody store peaked at %d bytes, bound is %d",
				rl.Stats.MaxStoredBytes, dtnStorageLimit)
		}
		if n := rl.StoredADUs(); n != 0 {
			res.violatef("relay still holds %d ADUs in custody after drain", n)
		}
		if rl.Stats.MaxStoredBytes > res.RelayPeakBytes {
			res.RelayPeakBytes = rl.Stats.MaxStoredBytes
		}
		res.RelayEvicted += rl.Stats.Evicted
		res.RelayShed += rl.Stats.ShedFrags
		res.RelayRetxADUs += rl.Stats.RetxADUs
		res.NacksAnswered += rl.Stats.NacksAnswered
	}

	res.CustodyReleased = snd.Stats.CustodyReleased
	res.DeadlineDrops = snd.Stats.DeadlineDrops
	res.UnfilledNacks = snd.Stats.UnfilledNacks
	res.FinalRateBps = snd.Rate()
	res.GoodputBps = float64(res.Delivered) * float64(dtnADUBytes) * 8 / window.Seconds()
	noteViolations(cfg.Recorder, res.Violations)
	return res, nil
}
