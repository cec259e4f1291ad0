package experiments

import (
	"fmt"
	"slices"
	"time"

	alf "repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/xcode"
)

// F9Point compares recovery mechanisms at one loss rate: NACK-based
// whole-ADU retransmission against ADU-level forward error correction
// (paper footnote 10), alone and combined.
type F9Point struct {
	LossPct float64
	Mode    string // "nack", "fec", "fec+nack", "none"

	DeliveredFrac float64
	GoodputMbps   float64
	// MeanLatency is the average virtual time from first fragment seen
	// to ADU delivery (recovery latency shows up here).
	MeanLatency sim.Duration
	// P95Latency is the tail that retransmission round trips create.
	P95Latency   sim.Duration
	Resends      int64
	FECRecovered int64
	WireOverhead float64 // wire bytes / app bytes
}

// F9's 2 MB in ADUs of 8 KB, one parity per four fragments (25 %
// redundancy), and a 50 Mb/s path with 10 ms one way, so the NACK
// round trip is visible.
const (
	f9Bytes    = 2 << 20
	f9ADUBytes = 8 << 10
	f9FECGroup = 4
	f9LinkBps  = 50e6
	f9Delay    = 10 * time.Millisecond
)

// F9Modes are the recovery modes the F9 table compares at each loss
// rate, in its row order.
var F9Modes = []string{"none", "nack", "fec", "fec+nack"}

// RunF9 measures one (loss, mode) cell. Modes: "nack" (SenderBuffered,
// no FEC), "fec" (NoRetransmit with FEC), "fec+nack" (both), "none"
// (NoRetransmit, no FEC).
func RunF9(seed int64, lossPct float64, mode string) (F9Point, error) {
	p := F9Point{LossPct: lossPct, Mode: mode}

	acfg := alf.Config{
		MTU:          1024 + alf.HeaderSize,
		NackDelay:    10 * time.Millisecond,
		NackInterval: 10 * time.Millisecond,
		MaxNacks:     100,
		HoldTime:     500 * time.Millisecond,
		RateBps:      f9LinkBps,
	}
	switch mode {
	case "nack":
		acfg.Policy = alf.SenderBuffered
	case "fec":
		acfg.Policy = alf.NoRetransmit
		acfg.FECGroup = f9FECGroup
	case "fec+nack":
		acfg.Policy = alf.SenderBuffered
		acfg.FECGroup = f9FECGroup
	case "none":
		acfg.Policy = alf.NoRetransmit
	default:
		return p, fmt.Errorf("f9: unknown mode %q", mode)
	}

	s, a, b, ab, ba := twoNodes(seed, netsim.LinkConfig{
		RateBps:  f9LinkBps,
		Delay:    f9Delay,
		LossProb: lossPct / 100,
	})
	snd, rcv, err := alf.Connect(s, a, b, ab, ba, acfg)
	if err != nil {
		return p, err
	}

	// Latency is measured from ADU submission to delivery, so the
	// application submits ADUs paced at the link rate (submitting the
	// whole transfer at t=0 would fold pacer queueing into every
	// sample and wash out the recovery-latency difference).
	var delivered int64
	var done sim.Time
	var lat []float64 // seconds, submission to delivery
	var sendErr error
	sendTime := map[uint64]sim.Time{}
	rcv.OnADU = func(adu alf.ADU) {
		delivered += int64(len(adu.Data))
		done = s.Now()
		if t0, ok := sendTime[adu.Name]; ok {
			lat = append(lat, time.Duration(s.Now().Sub(t0)).Seconds())
		}
	}

	chunk := make([]byte, f9ADUBytes)
	// Inter-ADU interval at the link rate, FEC overhead included.
	wirePerADU := float64(f9ADUBytes) * 1.1
	if acfg.FECGroup > 0 {
		wirePerADU *= 1 + 1/float64(acfg.FECGroup)
	}
	interval := sim.Duration(wirePerADU * 8 / f9LinkBps * 1e9)
	for off, i := 0, 0; off < f9Bytes; off, i = off+f9ADUBytes, i+1 {
		nb := f9ADUBytes
		if off+nb > f9Bytes {
			nb = f9Bytes - off
		}
		i := i
		buf := chunk[:nb]
		s.After(sim.Duration(i)*interval, func() {
			name, err := snd.Send(uint64(i), xcode.SyntaxRaw, buf)
			if err != nil && sendErr == nil {
				sendErr = err
				return
			}
			sendTime[name] = s.Now()
		})
	}
	if err := s.Run(); err != nil {
		return p, err
	}
	if sendErr != nil {
		return p, sendErr
	}

	p.DeliveredFrac = float64(delivered) / float64(f9Bytes)
	if done > 0 {
		p.GoodputMbps = stats.Mbps(delivered, time.Duration(done))
	}
	if n := len(lat); n > 0 {
		var sum float64
		for _, x := range lat {
			sum += x
		}
		p.MeanLatency = sim.Duration(sum / float64(n) * 1e9)
		// p95 interpolates linearly between the closest ranks.
		slices.Sort(lat)
		rank := 0.95 * float64(n-1)
		lo := int(rank)
		frac := rank - float64(lo)
		p.P95Latency = sim.Duration((lat[lo]*(1-frac) + lat[min(lo+1, n-1)]*frac) * 1e9)
	}
	p.Resends = snd.Stats.ResentADUs
	p.FECRecovered = rcv.Stats.FECRecovered
	p.WireOverhead = float64(ab.Stats.SentBytes) / float64(f9Bytes)
	return p, nil
}

// A3Point compares FEC effectiveness under independent loss versus
// bursty (Gilbert–Elliott) loss at roughly the same average rate. XOR
// parity recovers only single losses per group, so loss correlation is
// its known weakness — the ablation that bounds where footnote 10's
// suggestion applies.
type A3Point struct {
	Burst         bool
	AvgLossPct    float64 // measured on the wire
	DeliveredFrac float64 // FEC-only (NoRetransmit) residual delivery
	FECRecovered  int64
	ADUsLost      int64
}

// RunA3 measures FEC-only recovery under one loss process.
func RunA3(seed int64, burst bool) (A3Point, error) {
	p := A3Point{Burst: burst}

	linkCfg := netsim.LinkConfig{
		RateBps: f9LinkBps,
		Delay:   f9Delay,
	}
	if burst {
		// ~3% average loss concentrated in bursts: enter a bad state
		// rarely, lose most packets while in it.
		linkCfg.Burst = &netsim.Gilbert{
			PGoodToBad: 0.004, PBadToGood: 0.12, LossGood: 0, LossBad: 0.9,
		}
	} else {
		linkCfg.LossProb = 0.03
	}

	acfg := alf.Config{
		MTU:          1024 + alf.HeaderSize,
		Policy:       alf.NoRetransmit,
		FECGroup:     f9FECGroup,
		NackInterval: 10 * time.Millisecond,
		HoldTime:     300 * time.Millisecond,
		RateBps:      f9LinkBps,
	}
	s, a, b, ab, ba := twoNodes(seed, linkCfg)
	snd, rcv, err := alf.Connect(s, a, b, ab, ba, acfg)
	if err != nil {
		return p, err
	}

	var delivered int64
	rcv.OnADU = func(adu alf.ADU) { delivered += int64(len(adu.Data)) }
	rcv.OnLost = func(uint64) { p.ADUsLost++ }

	if err := sendBulk(snd, f9Bytes, f9ADUBytes, 1); err != nil {
		return p, err
	}
	if err := s.Run(); err != nil {
		return p, err
	}
	p.DeliveredFrac = float64(delivered) / float64(f9Bytes)
	p.FECRecovered = rcv.Stats.FECRecovered
	if ab.Stats.Sent > 0 {
		p.AvgLossPct = 100 * float64(ab.Stats.LineLosses) / float64(ab.Stats.Sent)
	}
	return p, nil
}
