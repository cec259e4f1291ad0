package experiments

import (
	"fmt"
	"time"

	alf "repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/otp"
	"repro/internal/parallel"
	"repro/internal/sim"
	"repro/internal/stats"
)

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

// RunF2 measures one loss-rate point. The receiving application of
// both arms is one parallel.Stage at f2AppBps: it converts data at a
// fixed rate of virtual time and can only work on data its transport
// has delivered, so its idle time is the paper's stalled pipeline (§5).
func RunF2(seed int64, lossPct float64) (F2Point, error) {
	p := F2Point{LossPct: lossPct}
	link := netsim.LinkConfig{RateBps: f2LinkBps, Delay: f2Delay, LossProb: lossPct / 100}

	// --- OTP side: ordered byte stream, app fed in order. ---
	{
		s, a, b, ab, ba := twoNodes(seed, link)
		oc := otp.Config{MSS: 1024, SendWindow: 1 << 20, RecvWindow: 1 << 20,
			SendBuffer: f2Bytes + (1 << 20), FastRetransmit: true}
		snd, rcv := otp.Connect(s, a, b, ab, ba, oc, oc)

		app := &parallel.Stage{RateBps: f2AppBps}
		var done sim.Time
		rcv.OnData = func(d []byte) {
			finish := app.Process(s.Now(), len(d))
			if app.Bytes == int64(f2Bytes) {
				done = finish
			}
		}
		if err := snd.Send(make([]byte, f2Bytes)); err != nil {
			return p, fmt.Errorf("otp send: %w", err)
		}
		if err := s.Run(); err != nil {
			return p, err
		}
		if app.Bytes != int64(f2Bytes) {
			return p, fmt.Errorf("otp delivered %d of %d bytes at loss %.1f%%",
				app.Bytes, f2Bytes, lossPct)
		}
		p.OTPDone = sim.Duration(done)
		p.OTPGoodputMbps = stats.Mbps(int64(f2Bytes), p.OTPDone)
		p.OTPIdleFrac = 1 - app.BusyTime.Seconds()/p.OTPDone.Seconds()
	}

	// --- ALF side: out-of-order complete ADUs. ---
	{
		s, a, b, ab, ba := twoNodes(seed+1000, link)
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

		app := &parallel.Stage{RateBps: f2AppBps}
		var done sim.Time
		rcv.OnADU = func(adu alf.ADU) {
			finish := app.Process(s.Now(), len(adu.Data))
			if app.Bytes == int64(f2Bytes) {
				done = finish
			}
		}
		rcv.OnLost = func(name uint64) { p.ALFLost++ }

		if err := sendBulk(snd, f2Bytes, f2ADUSize, f2ADUSize); err != nil {
			return p, fmt.Errorf("alf send: %w", err)
		}
		if err := s.Run(); err != nil {
			return p, err
		}
		if app.Bytes != int64(f2Bytes) {
			return p, fmt.Errorf("alf converted %d of %d bytes at loss %.1f%% (lost %d ADUs)",
				app.Bytes, f2Bytes, lossPct, p.ALFLost)
		}
		p.ALFDone = sim.Duration(done)
		p.ALFGoodputMbps = stats.Mbps(int64(f2Bytes), p.ALFDone)
		p.ALFIdleFrac = 1 - app.BusyTime.Seconds()/p.ALFDone.Seconds()
	}
	return p, nil
}
