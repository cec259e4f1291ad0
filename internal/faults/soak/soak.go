// Package soak holds the soak harnesses: four families that each build
// a path, state which ADUs may be lost, and leave the exactly-once
// accounting to one ledger (ledger.go); the three simulated ones also
// share one rig there — clock, network, planes, submission schedule
// and the drain-and-check tail. The chaos family (this file)
// runs fault scenarios; overload.go asks a bottleneck for more than it
// has; dtn.go crosses an interplanetary path with custody relays; and
// udp.go moves ADUs across real loopback sockets through
// internal/udplink, on the wall clock.
//
// The chaos family runs randomized fault scenarios (internal/faults)
// against the ALF stack and the OTP baseline sharing one faulty
// topology, and checks the delivery invariants that must survive any
// fault schedule:
//
//   - Every ADU the application submits is delivered exactly once OR
//     reported lost exactly once — never both, never neither — under
//     all three recovery policies.
//   - No corrupted payload is ever delivered (checksums hold under
//     damage injected mid-fault).
//   - Sender retention and receiver reassembly state stay bounded
//     during a sustained blackout (ADUDeadline and hold-time give-ups
//     do their jobs).
//   - After the last fault heals, the event loop drains: no timer wheel
//     left spinning, no recovery livelock (OTP's FailThreshold and
//     ALF's heartbeat cap guarantee quiescence).
//   - The OTP byte stream is delivered as an exact prefix of what was
//     submitted; a connection that did not die delivers everything.
//
// A simulated run is fully determined by (code, Config): the traffic,
// the fault schedule, and every impairment derive from explicit seeds.
// The same harness backs `go test` (soak_test.go) and cmd/alfchaos.
package soak

import (
	"time"

	alf "repro/internal/core"
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/otp"
	"repro/internal/sim"
	"repro/internal/xcode"
)

// Config parameterizes one soak run. Zero fields take defaults.
type Config struct {
	// Seed determines the run (impairments, fault schedule).
	Seed int64
	// Scenario names a faults.Preset (default "random").
	Scenario string
	// Duration is the virtual horizon; faults heal by ~2/3 of it and
	// the tail is quiet for recovery (default 3 s).
	Duration sim.Duration
	// Policy is the ALF recovery policy under test (default
	// SenderBuffered).
	Policy alf.Policy
	// ADUs and ADUBytes shape the ALF workload (defaults 60 x 3000 B),
	// submitted at a steady rate over the first 2/3 of the horizon.
	ADUs     int
	ADUBytes int
	// OTPBytes is the OTP stream volume (default 120 kB), submitted in
	// 2 kB writes over the first 2/3 of the horizon.
	OTPBytes int
	// HoldOnDown selects netsim.HoldOnDown for the trunk (default:
	// DropOnDown) — the same invariants must hold either way.
	HoldOnDown bool
	// Planes instrument the run; the tracer sees the ALF and OTP
	// endpoints, every link and every fault window.
	Planes
}

func (c *Config) fill() {
	if c.Scenario == "" {
		c.Scenario = "random"
	}
	if c.Duration == 0 {
		c.Duration = 3 * time.Second
	}
	if c.Policy == 0 {
		c.Policy = alf.SenderBuffered
	}
	if c.ADUs == 0 {
		c.ADUs = 60
	}
	if c.ADUBytes == 0 {
		c.ADUBytes = 3000
	}
	if c.OTPBytes == 0 {
		c.OTPBytes = 120_000
	}
}

// Result reports one soak run. Violations empty means every invariant
// held.
type Result struct {
	verdict

	Scenario string
	Seed     int64
	Policy   alf.Policy
	Horizon  sim.Duration

	// ALF accounting.
	Submitted     int
	Delivered     int
	Lost          int
	Expired       int64 // sender-side ADUDeadline sheds
	ResentADUs    int64
	RecomputeADUs int64
	UnfilledNacks int64

	// OTP accounting.
	OTPSent        int64
	OTPDelivered   int64
	OTPDead        bool
	OTPTimeouts    int64
	OTPRetransmits int64

	// Invariant evidence.
	PeakRetention  int // bytes retained by the ALF sender, max over run
	PeakReassembly int // partial ADUs at the ALF receiver, max over run
	Faults         faults.Stats
	TrunkDownDrops int64
	TrunkHeld      int64

	// ViolatedADUs names the ALF ADUs whose delivery accounting broke
	// (duplicated, both-delivered-and-lost, or unaccounted for), so a
	// caller holding the run's tracer can dump their timelines.
	ViolatedADUs []uint64
}

// otpByte is the deterministic OTP stream pattern at offset off.
func otpByte(off int64) byte { return byte(off*37>>3) ^ byte(off) }

// Run executes one soak scenario to quiescence and returns the
// invariant report. It errors only on harness misconfiguration; fault
// consequences are Violations, not errors.
func Run(cfg Config) (*Result, error) {
	cfg.fill()
	res := &Result{Scenario: cfg.Scenario, Seed: cfg.Seed,
		Policy: cfg.Policy, Horizon: cfg.Duration}

	// ---- Topology: two sources and two sinks joined by a lossy trunk.
	//
	//	alf-src ─┐                       ┌─ alf-dst
	//	         ├─ rL ═════ trunk ═════ rR ─┤
	//	otp-src ─┘     (faults here)     └─ otp-dst
	//
	// Access links are clean and fast; every fault and impairment lives
	// on the shared trunk, the cut set between the left and right
	// groups.
	r := newRig(&res.verdict, cfg.Planes, cfg.Seed, cfg.Duration)
	s, net := r.s, r.net
	alfSrc := net.NewNode("alf-src")
	otpSrc := net.NewNode("otp-src")
	alfDst := net.NewNode("alf-dst")
	otpDst := net.NewNode("otp-dst")
	rL := net.NewRouter("rL")
	rR := net.NewRouter("rR")

	access := netsim.LinkConfig{RateBps: 100e6, Delay: 200 * time.Microsecond}
	asL, lAs := net.NewDuplex(alfSrc, rL.Node, access)
	osL, lOs := net.NewDuplex(otpSrc, rL.Node, access)
	adR, rAd := net.NewDuplex(alfDst, rR.Node, access)
	odR, rOd := net.NewDuplex(otpDst, rR.Node, access)

	trunkCfg := netsim.LinkConfig{
		RateBps: 8e6, Delay: 10 * time.Millisecond,
		QueueLimit: 64, LossProb: 0.005,
	}
	if cfg.HoldOnDown {
		trunkCfg.OnDown = netsim.HoldOnDown
	}
	lr, rl := net.NewDuplex(rL.Node, rR.Node, trunkCfg)

	rL.AddRoute(alfDst, lr)
	rL.AddRoute(otpDst, lr)
	rL.AddRoute(alfSrc, lAs)
	rL.AddRoute(otpSrc, lOs)
	rR.AddRoute(alfSrc, rl)
	rR.AddRoute(otpSrc, rl)
	rR.AddRoute(alfDst, rAd)
	rR.AddRoute(otpDst, rOd)

	// ---- ALF stream over the left/right path. The chaos policy:
	// every accepted ADU is exactly one of delivered or reported lost.
	aCfg := alf.Config{
		Policy:               cfg.Policy,
		Suite:                alf.SuiteScramble,
		Key:                  0xA1F0_0000_0000_0001,
		NackDelay:            10 * time.Millisecond,
		NackInterval:         20 * time.Millisecond,
		HoldTime:             600 * time.Millisecond,
		MaxNacks:             6,
		HeartbeatInterval:    25 * time.Millisecond,
		HeartbeatMaxInterval: 250 * time.Millisecond,
		// The sender must keep declaring extent well past any outage in
		// the horizon; backoff caps the probe rate, the limit is only
		// the truly-dead-path fuse.
		HeartbeatLimit: 1 << 30,
		ADUDeadline:    400 * time.Millisecond,
	}
	led, err := r.connect("alf: ", cfg.ADUBytes, alfSrc, alfDst, asL, adR, aCfg)
	if err != nil {
		return nil, err
	}
	snd, rcv := led.snd, led.rcv
	expired := make(map[uint64]int)
	snd.OnExpire = func(name uint64) { expired[name]++ }
	snd.OnResend = func(name uint64) (uint64, xcode.SyntaxID, []byte, bool) {
		// AppRecompute: regenerate from the pattern — always possible.
		return aduTag(name), xcode.SyntaxRaw, led.payload(name), true
	}

	// ---- OTP connection over the same path.
	oCfg := otp.Config{
		MSS: 1000, FastRetransmit: true,
		InitialRTO: 100 * time.Millisecond,
		MinRTO:     50 * time.Millisecond,
		MaxRTO:     time.Second,
		// The connection-dead fuse: without it a blackout near the end
		// of the horizon would leave the sender retrying at MaxRTO
		// forever and the drain invariant could never hold.
		FailThreshold: 8,
		Metrics:       r.Metrics,
		MetricsLabels: []string{"role=snd"},
		Tracer:        r.Tracer,
	}
	oRcvCfg := oCfg
	oRcvCfg.MetricsLabels = []string{"role=rcv"}
	oSnd, oRcv := otp.Connect(s, otpSrc, otpDst, osL, odR, oCfg, oRcvCfg)

	var otpRecv int64
	oRcv.OnData = func(d []byte) {
		for i, b := range d {
			if b != otpByte(otpRecv+int64(i)) {
				res.violatef("otp: byte at offset %d corrupted", otpRecv+int64(i))
				break
			}
		}
		otpRecv += int64(len(d))
	}

	// ---- Workload: steady submission over the first 2/3 of the
	// horizon, leaving a quiet tail for recovery.
	submitWindow := cfg.Duration * 2 / 3
	aduEvery := submitWindow / sim.Duration(cfg.ADUs)
	if aduEvery <= 0 {
		aduEvery = time.Microsecond // degenerate horizon: submit back to back
	}
	r.offer(led, cfg.ADUs, func(i int) sim.Duration { return sim.Duration(i) * aduEvery }, nil)
	res.Submitted = cfg.ADUs

	const otpChunk = 2000
	otpWrites := (cfg.OTPBytes + otpChunk - 1) / otpChunk
	otpEvery := submitWindow / sim.Duration(otpWrites)
	if otpEvery <= 0 {
		otpEvery = time.Microsecond
	}
	var otpSent int64
	for i := 0; i < otpWrites; i++ {
		off := int64(i) * otpChunk
		n := cfg.OTPBytes - i*otpChunk
		if n > otpChunk {
			n = otpChunk
		}
		chunk := make([]byte, n)
		for j := range chunk {
			chunk[j] = otpByte(off + int64(j))
		}
		s.After(sim.Duration(i)*otpEvery, func() {
			if oSnd.Dead() {
				return // submission stops at the app once the conn fails
			}
			if err := oSnd.Send(chunk); err != nil {
				res.violatef("otp: Send at offset %d failed: %v", off, err)
				return
			}
			otpSent += int64(n)
		})
	}

	// ---- Fault schedule.
	inj := faults.New(s, cfg.Seed^0x5eed)
	inj.BindMetrics(r.Metrics)
	inj.SetTracer(r.Tracer)
	targets := faults.Targets{
		Net:     net,
		Trunk:   []*netsim.Link{lr, rl},
		Forward: []*netsim.Link{lr},
		GroupA:  []*netsim.Node{alfSrc, otpSrc, rL.Node},
		GroupB:  []*netsim.Node{alfDst, otpDst, rR.Node},
	}
	if err := inj.Preset(cfg.Scenario, targets, cfg.Duration); err != nil {
		return nil, err
	}

	// ---- Boundedness sampler: peak sender retention and receiver
	// reassembly, observed every 20 ms across the whole horizon.
	var sample func()
	sample = func() {
		if b := snd.BufferedBytes(); b > res.PeakRetention {
			res.PeakRetention = b
		}
		if p := rcv.Pending(); p > res.PeakReassembly {
			res.PeakReassembly = p
		}
		if s.Now() < sim.Time(0).Add(cfg.Duration) {
			s.After(20*time.Millisecond, sample)
		}
	}
	sample()

	// ---- Run to the horizon, then drain: after the last fault heals,
	// the event loop must go quiet on its own.
	r.finish(15*time.Second, func() {
		res.ViolatedADUs = led.settle(true)
		for _, name := range led.names() {
			if expired[name] > 1 {
				res.violatef("alf: ADU %d expired %d times at the sender", name, expired[name])
			}
		}
		res.Delivered = len(led.delivered)
		res.Lost = len(led.lost)
		res.Expired = snd.Stats.DeadlineDrops
		res.ResentADUs = snd.Stats.ResentADUs
		res.RecomputeADUs = snd.Stats.RecomputeADUs
		res.UnfilledNacks = snd.Stats.UnfilledNacks

		// Retention bound: with ADUDeadline D and submission period P,
		// at most ceil(D/P)+slack ADUs can be retained at once; a
		// blackout longer than D must not let retention track the
		// whole backlog.
		if cfg.Policy == alf.SenderBuffered {
			bound := (int(aCfg.ADUDeadline/aduEvery) + 4) * cfg.ADUBytes
			if res.PeakRetention > bound {
				res.violatef("alf: peak retention %d B exceeds deadline bound %d B",
					res.PeakRetention, bound)
			}
		}
		// Reassembly bound: an ADU is held at most HoldTime before
		// give-up.
		if bound := int(aCfg.HoldTime/aduEvery) + 4; res.PeakReassembly > bound {
			res.violatef("alf: peak reassembly %d ADUs exceeds hold-time bound %d",
				res.PeakReassembly, bound)
		}
	}, func() {
		if inj.Active() {
			res.violatef("faults: injector still active after the horizon")
		}

		// OTP stream integrity: delivery is a verified prefix (checked
		// in OnData); a live connection delivers everything it
		// accepted.
		res.OTPSent = otpSent
		res.OTPDelivered = oRcv.Delivered()
		res.OTPDead = oSnd.Dead()
		res.OTPTimeouts = oSnd.Stats.Timeouts
		res.OTPRetransmits = oSnd.Stats.Retransmits
		if res.OTPDelivered > otpSent {
			res.violatef("otp: delivered %d bytes of %d submitted", res.OTPDelivered, otpSent)
		}
		if !res.OTPDead && res.OTPDelivered != otpSent {
			res.violatef("otp: live connection delivered %d of %d bytes",
				res.OTPDelivered, otpSent)
		}
		if res.OTPDead && oSnd.Stats.Died != 1 {
			res.violatef("otp: Dead() true but Died stat = %d", oSnd.Stats.Died)
		}

		res.Faults = inj.Stats
		res.TrunkDownDrops = lr.Stats.DownDrops + rl.Stats.DownDrops
		res.TrunkHeld = lr.Stats.HeldPackets + rl.Stats.HeldPackets
	})
	return res, nil
}
