package udplink

import (
	"bytes"
	"fmt"
	"net"
	"time"

	"repro/internal/buf"
	alf "repro/internal/core"
	"repro/internal/sim"
	"repro/internal/xcode"
)

// SoakConfig parameterizes a real-UDP loopback soak: the same
// exactly-once / integrity / drain invariants internal/faults/soak
// checks on the simulator, asserted off-simulator against kernel
// sockets, wall-clock timers, and deterministic send-side drops.
// Zero fields take defaults.
type SoakConfig struct {
	// ADUs and ADUBytes shape the workload (defaults 200 x 3000 B).
	ADUs     int
	ADUBytes int
	// ADUSizes, if set, gives ADU i ADUSizes[i mod len] bytes in place
	// of ADUBytes, so that fragment runs of different lengths, short
	// tails, resends and control frames share the send queues.
	ADUSizes []int
	// LossProb drops data-plane datagrams on the send side; zero drops
	// none. The control plane stays clean so the run bounds cleanly.
	LossProb float64
	// Seed drives the drop stream (default 1).
	Seed uint64
	// Suite selects the cipher plane (alf.SuiteAEAD makes the soak
	// double as the fused-crypto-over-real-sockets check).
	Suite alf.CipherSuite
	// FECGroup enables sender FEC (default 0).
	FECGroup int
	// SubmitEvery is the virtual-timer submission period (default
	// 2 ms; also the pacing the soak applies to the socket).
	SubmitEvery time.Duration
}

// soakTimeout bounds a soak's wall-clock run.
const soakTimeout = time.Minute

func (c *SoakConfig) fill() {
	if c.ADUs == 0 {
		c.ADUs = 200
	}
	if c.ADUBytes == 0 {
		c.ADUBytes = 3000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.SubmitEvery == 0 {
		c.SubmitEvery = 2 * time.Millisecond
	}
}

// SoakResult reports what a soak run observed. Violated invariants
// surface as the error from RunSoak, not here.
type SoakResult struct {
	Delivered int64
	Lost      int64
	Duplicate int64
	Corrupt   int64
	WireDrops int64 // datagrams eaten by the lossy conn
	Resent    int64 // sender whole-ADU retransmissions
	AuthFails int64 // receiver tag rejections (expect 0: drops, not damage)
	Elapsed   time.Duration
	// The data direction's socket work: datagrams, the messages that
	// carried them (trains, on the batch path) and the system calls that
	// carried those, as the sending and the receiving link counted them.
	Sent, TxMsgs, TxCalls  int64
	Recvd, RxMsgs, RxCalls int64
}

// soakPayload builds the deterministic payload for one ADU name.
func soakPayload(name uint64, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(uint64(i)*7 + name*131 + 5)
	}
	return b
}

// RunSoak transfers a workload across a pair of real loopback UDP
// sockets — data plane through a deterministic drop wrapper — and
// checks the soak invariants:
//
//   - every submitted ADU is delivered exactly once (SenderBuffered
//     recovery heals all drops; none may be lost or duplicated),
//   - every delivered payload is byte-identical to what was submitted,
//   - after delivery the receiver has fully drained (no partials, no
//     tracked gaps) and the sender retains nothing.
//
// It returns counters for reporting; any violated invariant is an
// error.
func RunSoak(cfg SoakConfig) (SoakResult, error) {
	cfg.fill()
	var res SoakResult

	connA, err := net.ListenPacket("udp4", "127.0.0.1:0")
	if err != nil {
		return res, err
	}
	defer connA.Close()
	connB, err := net.ListenPacket("udp4", "127.0.0.1:0")
	if err != nil {
		return res, err
	}
	defer connB.Close()
	lossy := NewLossyConn(connA, cfg.LossProb, cfg.Seed)

	sched := sim.NewScheduler()
	clk := NewClock(sched, Config{Pool: buf.NewPool()})
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
		return res, err
	}
	snd.SendRef = dataLink.SendRef
	rcv, err := alf.NewReceiver(sched, ctrlLink.Send, acfg)
	if err != nil {
		return res, err
	}
	ctrlLink.SetHandler(func(p []byte) { _ = rcv.HandlePacket(p) })
	dataLink.SetHandler(func(p []byte) { _ = snd.HandleControl(p) })

	size := func(name uint64) int {
		if len(cfg.ADUSizes) > 0 {
			return cfg.ADUSizes[name%uint64(len(cfg.ADUSizes))]
		}
		return cfg.ADUBytes
	}
	seen := make(map[uint64]int, cfg.ADUs)
	rcv.OnADU = func(a alf.ADU) {
		seen[a.Tag]++
		if seen[a.Tag] > 1 {
			res.Duplicate++
		}
		if !bytes.Equal(a.Data, soakPayload(a.Tag, size(a.Tag))) {
			res.Corrupt++
		}
		res.Delivered++
		a.Release()
	}
	rcv.OnLost = func(name uint64) { res.Lost++ }

	submitted := 0
	sched.Every(cfg.SubmitEvery, func() bool {
		if submitted >= cfg.ADUs {
			return false
		}
		name := uint64(submitted)
		if _, err := snd.Send(name, xcode.SyntaxRaw, soakPayload(name, size(name))); err == nil {
			submitted++
		}
		return submitted < cfg.ADUs
	})

	start := time.Now()
	timedOut := false
	clk.Run(func() bool {
		if time.Since(start) > soakTimeout {
			timedOut = true
			return true
		}
		return submitted == cfg.ADUs &&
			res.Delivered+res.Lost >= int64(cfg.ADUs) &&
			rcv.Pending() == 0 && rcv.Missing() == 0 &&
			snd.BufferedADUs() == 0
	})
	clk.Stop()
	res.Elapsed = time.Since(start)
	res.WireDrops = lossy.Dropped()
	res.Resent = snd.Stats.ResentADUs
	res.AuthFails = rcv.Stats.AuthFails
	res.Sent, res.TxMsgs, res.TxCalls = dataLink.Sent(), dataLink.TxMsgs(), dataLink.TxCalls()
	res.Recvd, res.RxMsgs, res.RxCalls = ctrlLink.Recvd(), ctrlLink.RxMsgs(), ctrlLink.RxCalls()

	switch {
	case timedOut:
		return res, fmt.Errorf("udplink soak: timeout after %v (delivered %d/%d, pending %d, missing %d, drops %d)",
			soakTimeout, res.Delivered, cfg.ADUs, rcv.Pending(), rcv.Missing(), res.WireDrops)
	case res.Lost != 0:
		return res, fmt.Errorf("udplink soak: %d ADUs lost under SenderBuffered recovery", res.Lost)
	case res.Duplicate != 0:
		return res, fmt.Errorf("udplink soak: %d duplicate deliveries", res.Duplicate)
	case res.Corrupt != 0:
		return res, fmt.Errorf("udplink soak: %d corrupted deliveries", res.Corrupt)
	case res.Delivered != int64(cfg.ADUs):
		return res, fmt.Errorf("udplink soak: delivered %d of %d", res.Delivered, cfg.ADUs)
	case res.AuthFails != 0:
		return res, fmt.Errorf("udplink soak: %d tag failures on a drop-only path", res.AuthFails)
	}
	return res, nil
}
