package soak

import (
	"net"
	"time"

	"repro/internal/buf"
	alf "repro/internal/core"
	"repro/internal/sim"
	"repro/internal/udplink"
)

// This file is the real-socket family: one ALF stream across a pair of
// kernel loopback UDP sockets, run by udplink's wall clock, its data
// direction through a deterministic drop wrapper. The ledger and the
// end-state checks are the simulator families'; the policy is strict:
// SenderBuffered recovery heals every drop, so no ADU may be lost, and
// a path that only drops never fails a tag.

// UDPConfig parameterizes one real-socket run. Zero fields take
// defaults.
type UDPConfig struct {
	// ADUs is the workload length (default 200).
	ADUs int
	// ADUSizes gives submission k ADUSizes[k mod len] bytes (default
	// {3000}). Several sizes put fragment runs of different lengths,
	// short tails, resends and control frames in the same send queues.
	ADUSizes []int
	// LossProb drops data-plane datagrams on the send side; zero drops
	// none. The control plane stays clean so the run bounds cleanly.
	LossProb float64
	// Seed drives the drop stream and the key (default 1).
	Seed int64
	// Suite selects the cipher plane (alf.SuiteAEAD makes the run
	// double as the fused-crypto-over-real-sockets check).
	Suite alf.CipherSuite
	// FECGroup enables sender FEC (default 0).
	FECGroup int
	// SubmitEvery is the submission tick (default 2 ms). A tick submits
	// one ADU while fewer than udpWindow are outstanding.
	SubmitEvery time.Duration
}

func (c *UDPConfig) fill() {
	if c.ADUs == 0 {
		c.ADUs = 200
	}
	if len(c.ADUSizes) == 0 {
		c.ADUSizes = []int{3000}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.SubmitEvery == 0 {
		c.SubmitEvery = 2 * time.Millisecond
	}
}

const (
	// udpWindow caps the ADUs submitted but neither delivered nor
	// reported lost, so a loop that falls behind its tick cannot flood
	// the receiving socket until kernel drops pile up past MaxNacks.
	// Larger windows let more whole-ADU resends meet a full socket: with
	// 8 KiB ADUs and three or four runs sharing two vCPUs, 96 and 128
	// stalled the settle frontier until retention hit BufferLimit. A
	// tick that finds the window full is not made up later; making it
	// up overflowed the socket the same way.
	udpWindow = 64
	// udpTimeout bounds a run's wall-clock time.
	udpTimeout = time.Minute
)

// UDPResult reports one real-socket run. Violations empty means every
// invariant held.
type UDPResult struct {
	verdict

	Delivered  int64
	Lost       int64
	WireDrops  int64 // datagrams eaten by the lossy conn
	Resent     int64 // sender whole-ADU retransmissions
	EarlyNacks int64 // first NACKs sent on evidence, before NackDelay
	AuthFails  int64 // receiver tag rejections
	Elapsed    time.Duration
	// The data direction's socket work: datagrams, the messages that
	// carried them (trains, on the batch path) and the system calls that
	// carried those, as the sending and the receiving link counted them.
	Sent, TxMsgs, TxCalls  int64
	Recvd, RxMsgs, RxCalls int64
}

// RunUDP transfers the workload across real loopback sockets and
// returns the invariant report. It errors only when the sockets or the
// endpoints cannot be set up; broken invariants are Violations.
func RunUDP(cfg UDPConfig) (*UDPResult, error) {
	cfg.fill()
	res := &UDPResult{}

	connA, err := net.ListenPacket("udp4", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer connA.Close()
	connB, err := net.ListenPacket("udp4", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer connB.Close()
	lossy := udplink.NewLossyConn(connA, cfg.LossProb, uint64(cfg.Seed))

	sched := sim.NewScheduler()
	clk := udplink.NewClock(sched, udplink.Config{Pool: buf.NewPool()})
	dataLink := clk.NewLink(lossy, connB.LocalAddr())
	ctrlLink := clk.NewLink(connB, connA.LocalAddr())

	acfg := alf.Config{
		Policy:       alf.SenderBuffered,
		Suite:        cfg.Suite,
		FECGroup:     cfg.FECGroup,
		NackDelay:    10 * time.Millisecond,
		NackInterval: 10 * time.Millisecond,
	}
	if cfg.Suite != alf.SuiteNone {
		acfg.Key = 0xDEFACED0 + uint64(cfg.Seed)
	}
	snd, err := alf.NewSender(sched, dataLink.Send, acfg)
	if err != nil {
		return nil, err
	}
	snd.SendRef = dataLink.SendRef
	rcv, err := alf.NewReceiver(sched, ctrlLink.Send, acfg)
	if err != nil {
		return nil, err
	}
	ctrlLink.SetHandler(func(p []byte) { _ = rcv.HandlePacket(p) })
	dataLink.SetHandler(func(p []byte) { _ = snd.HandleControl(p) })

	led := newLedger(&res.verdict, "", cfg.ADUSizes, snd, rcv)
	rcv.OnADU = func(adu alf.ADU) {
		led.deliver(adu)
		adu.Release()
	}
	rcv.OnLost = func(name uint64) {
		led.lose(name)
		res.violatef("ADU %d lost under SenderBuffered recovery", name)
	}
	// outstanding counts the ADUs accepted but neither delivered nor
	// reported lost.
	outstanding := func() int { return len(led.accepted) - led.good - led.lostCalls }

	stopped := false
	sched.Every(cfg.SubmitEvery, func() bool {
		if outstanding() < udpWindow && !led.submit(uint64(len(led.accepted)), alf.Standard) {
			stopped = true
			return false
		}
		stopped = len(led.accepted) == cfg.ADUs
		return !stopped
	})

	start := time.Now()
	clk.Run(func() bool {
		if time.Since(start) > udpTimeout {
			res.violatef("timeout after %v: delivered %d of %d, %d wire drops",
				udpTimeout, led.good, cfg.ADUs, lossy.Dropped())
			return true
		}
		return stopped && outstanding() <= 0 &&
			rcv.Pending() == 0 && rcv.Missing() == 0 &&
			snd.BufferedADUs() == 0 && snd.Backlog() == 0
	})
	clk.Stop()
	res.Elapsed = time.Since(start)

	led.settle(true)
	res.quiesced(nil, led)
	res.Delivered, res.Lost = int64(led.good), int64(led.lostCalls)
	if res.AuthFails = rcv.Stats.AuthFails; res.AuthFails != 0 {
		res.violatef("%d tag failures on a path that only drops", res.AuthFails)
	}
	res.WireDrops = lossy.Dropped()
	res.Resent, res.EarlyNacks = snd.Stats.ResentADUs, rcv.Stats.EarlyNacks
	res.Sent, res.TxMsgs, res.TxCalls = dataLink.Sent(), dataLink.TxMsgs(), dataLink.TxCalls()
	res.Recvd, res.RxMsgs, res.RxCalls = ctrlLink.Recvd(), ctrlLink.RxMsgs(), ctrlLink.RxCalls()
	return res, nil
}
