package experiments

import (
	"fmt"
	"time"

	alf "repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/otp"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/xcode"
)

// appModel is the presentation-limited receiving application of §5: it
// converts data at a fixed rate of virtual time and can only work on
// data that its transport has delivered. Its idle time is the paper's
// stalled pipeline.
type appModel struct {
	rateBps  float64  // conversion rate, bytes of virtual work per second
	busyTill sim.Time // when the app finishes everything handed to it
	busy     sim.Duration
	consumed int64
}

// feed hands the app bytes at virtual time now and returns when the app
// will finish converting them.
func (a *appModel) feed(now sim.Time, bytes int) sim.Time {
	start := a.busyTill
	if now > start {
		start = now
	}
	work := sim.Duration(float64(bytes) / a.rateBps * 1e9)
	a.busyTill = start.Add(work)
	a.busy += work
	a.consumed += int64(bytes)
	return a.busyTill
}

// F2Point is one loss-rate sample of the pipeline experiment: the same
// presentation-limited application fed by OTP (in-order delivery) and
// by ALF (out-of-order ADUs).
type F2Point struct {
	LossPct float64

	OTPGoodputMbps float64 // app-level conversion goodput
	ALFGoodputMbps float64
	OTPIdleFrac    float64 // app idle fraction before completion
	ALFIdleFrac    float64
	OTPDone        sim.Duration // completion time (virtual)
	ALFDone        sim.Duration
	ALFLost        int64 // should be zero (recovery enabled)
}

// F2Config parameterizes the pipeline experiment.
type F2Config struct {
	Seed int64
}

// F2's fixed path and application: 2 MB in ALF ADUs of 8 KB on an
// 80 Mb/s link with 5 ms one-way delay, into an application that
// converts 8e6 bytes/s (64 Mb/s), slower than the link.
const (
	f2Bytes   = 2 << 20
	f2ADUSize = 8 << 10
	f2LinkBps = 80e6
	f2AppBps  = 8e6
	f2Delay   = 5 * time.Millisecond
)

func (c *F2Config) fill() {
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// RunF2 measures one loss-rate point.
func RunF2(cfg F2Config, lossPct float64) (F2Point, error) {
	cfg.fill()
	p := F2Point{LossPct: lossPct}
	loss := lossPct / 100

	// --- OTP side: ordered byte stream, app fed in order. ---
	{
		s := sim.NewScheduler()
		n := netsim.New(s, cfg.Seed)
		a := n.NewNode("a")
		b := n.NewNode("b")
		ab, ba := n.NewDuplex(a, b, netsim.LinkConfig{
			RateBps: f2LinkBps, Delay: f2Delay, LossProb: loss,
		})
		oc := otp.Config{MSS: 1024, SendWindow: 1 << 20, RecvWindow: 1 << 20,
			SendBuffer: f2Bytes + (1 << 20), FastRetransmit: true}
		snd, rcv := otp.Connect(s, a, b, ab, ba, oc, oc)

		app := &appModel{rateBps: f2AppBps}
		var done sim.Time
		rcv.OnData = func(d []byte) {
			finish := app.feed(s.Now(), len(d))
			if app.consumed == int64(f2Bytes) {
				done = finish
			}
		}
		if err := snd.Send(make([]byte, f2Bytes)); err != nil {
			return p, fmt.Errorf("otp send: %w", err)
		}
		if err := s.Run(); err != nil {
			return p, err
		}
		if app.consumed != int64(f2Bytes) {
			return p, fmt.Errorf("otp delivered %d of %d bytes at loss %.1f%%",
				app.consumed, f2Bytes, lossPct)
		}
		p.OTPDone = sim.Duration(done)
		p.OTPGoodputMbps = stats.Mbps(int64(f2Bytes), p.OTPDone)
		p.OTPIdleFrac = 1 - app.busy.Seconds()/p.OTPDone.Seconds()
	}

	// --- ALF side: out-of-order complete ADUs. ---
	{
		s := sim.NewScheduler()
		n := netsim.New(s, cfg.Seed+1000)
		a := n.NewNode("a")
		b := n.NewNode("b")
		ab, ba := n.NewDuplex(a, b, netsim.LinkConfig{
			RateBps: f2LinkBps, Delay: f2Delay, LossProb: loss,
		})
		acfg := alf.Config{
			MTU:          1024 + alf.HeaderSize,
			NackDelay:    5 * time.Millisecond,
			NackInterval: 5 * time.Millisecond,
			MaxNacks:     100,
			HoldTime:     30 * time.Second,
			RateBps:      f2LinkBps, // pace at the link rate
		}
		snd, rcv, err := alf.Connect(s, a, b, ab, ba, acfg)
		if err != nil {
			return p, err
		}

		app := &appModel{rateBps: f2AppBps}
		var done sim.Time
		rcv.OnADU = func(adu alf.ADU) {
			finish := app.feed(s.Now(), len(adu.Data))
			if app.consumed == int64(f2Bytes) {
				done = finish
			}
		}
		rcv.OnLost = func(name uint64) { p.ALFLost++ }

		chunk := make([]byte, f2ADUSize)
		for off := 0; off < f2Bytes; off += f2ADUSize {
			n := f2ADUSize
			if off+n > f2Bytes {
				n = f2Bytes - off
			}
			if _, err := snd.Send(uint64(off), xcode.SyntaxRaw, chunk[:n]); err != nil {
				return p, fmt.Errorf("alf send: %w", err)
			}
		}
		if err := s.Run(); err != nil {
			return p, err
		}
		if app.consumed != int64(f2Bytes) {
			return p, fmt.Errorf("alf converted %d of %d bytes at loss %.1f%% (lost %d ADUs)",
				app.consumed, f2Bytes, lossPct, p.ALFLost)
		}
		p.ALFDone = sim.Duration(done)
		p.ALFGoodputMbps = stats.Mbps(int64(f2Bytes), p.ALFDone)
		p.ALFIdleFrac = 1 - app.busy.Seconds()/p.ALFDone.Seconds()
	}
	return p, nil
}
