package experiments

import (
	"encoding/binary"
	"fmt"
	"time"

	alf "repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/otp"
	"repro/internal/parallel"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/video"
	"repro/internal/xcode"
)

// F6Point is one worker-count sample of the §7 parallel-receiver
// experiment: ADUs self-dispatching to workers versus every byte
// squeezing through a serial reassembly hot spot first.
type F6Point struct {
	Workers        int
	ALFMakespan    sim.Duration
	SerialMakespan sim.Duration
	ALFMbps        float64
	SerialMbps     float64
	// Speedup is SerialMakespan / ALFMakespan.
	Speedup float64
}

// F6's workload of 8 MB in ADUs of 16 KB, each worker's processing
// rate in bytes/s, and a link fast enough not to matter.
const (
	f6Bytes     = 8 << 20
	f6ADUBytes  = 16 << 10
	f6WorkerBps = 10e6
	f6LinkBps   = 1e9
)

// RunF6 measures one worker count. Both variants receive the identical
// ADU stream over a clean fast link; they differ only in whether a
// serializing front end (running at f6WorkerBps, the speed of one
// processor node — the "hot spot which must run at the aggregate speed
// of the total processor" that parallel machines lack) sits before the
// workers.
func RunF6(seed int64, workers int) (F6Point, error) {
	p := F6Point{Workers: workers}

	run := func(serial bool) (sim.Duration, error) {
		s, a, b, ab, ba := twoNodes(seed, netsim.LinkConfig{RateBps: f6LinkBps, Delay: time.Millisecond})
		acfg := alf.Config{MTU: 8192 + alf.HeaderSize, RateBps: f6LinkBps}
		snd, rcv, err := alf.Connect(s, a, b, ab, ba, acfg)
		if err != nil {
			return 0, err
		}

		serialBps := 0.0
		if serial {
			serialBps = f6WorkerBps
		}
		pool := parallel.NewPool(s, workers, f6WorkerBps, serialBps)
		rcv.OnADU = pool.HandleADU

		if err := sendBulk(snd, f6Bytes, f6ADUBytes, 1); err != nil {
			return 0, err
		}
		if err := s.Run(); err != nil {
			return 0, err
		}
		total := (f6Bytes + f6ADUBytes - 1) / f6ADUBytes
		if pool.Dispatched != int64(total) {
			return 0, fmt.Errorf("f6: dispatched %d of %d", pool.Dispatched, total)
		}
		return sim.Duration(pool.LastFinish), nil
	}

	var err error
	if p.ALFMakespan, err = run(false); err != nil {
		return p, err
	}
	if p.SerialMakespan, err = run(true); err != nil {
		return p, err
	}
	p.ALFMbps = stats.Mbps(int64(f6Bytes), p.ALFMakespan)
	p.SerialMbps = stats.Mbps(int64(f6Bytes), p.SerialMakespan)
	if p.ALFMakespan > 0 {
		p.Speedup = p.SerialMakespan.Seconds() / p.ALFMakespan.Seconds()
	}
	return p, nil
}

// F7Point is one loss-rate sample of the real-time video experiment:
// the fraction of frames complete at their playout deadline for an ALF
// NoRetransmit stream versus a reliable ordered (OTP) stream carrying
// the same frames.
type F7Point struct {
	LossPct        float64
	ALFOnTimeFrac  float64
	ALFPartialFrac float64
	OTPOnTimeFrac  float64
	FramesSent     int64
	ALFResends     int64 // must be zero
	OTPRetransmits int64
}

// F7's video (120 frames at 30 frames/s, each of five 1000-byte slices)
// and path (20 Mb/s, 10 ms one way). The playout budget is tight:
// one-way transit fits, a retransmission round trip does not — the
// regime where "proceed without retransmission" wins (§5).
const (
	f7Frames       = 120
	f7FPS          = 30
	f7Slices       = 5
	f7SliceBytes   = 1000
	f7LinkBps      = 20e6
	f7Delay        = 10 * time.Millisecond
	f7PlayoutDelay = 25 * time.Millisecond
)

// RunF7 measures one loss point.
func RunF7(seed int64, lossPct float64) (F7Point, error) {
	p := F7Point{LossPct: lossPct, FramesSent: int64(f7Frames)}
	linkCfg := netsim.LinkConfig{
		RateBps:  f7LinkBps,
		Delay:    f7Delay,
		LossProb: lossPct / 100,
	}
	vcfg := video.SourceConfig{FPS: f7FPS, SlicesPerFrame: f7Slices, SliceBytes: f7SliceBytes}

	// --- ALF NoRetransmit. ---
	{
		s, a, b, ab, ba := twoNodes(seed, linkCfg)
		acfg := alf.Config{
			Policy:       alf.NoRetransmit,
			HoldTime:     f7PlayoutDelay + 100*time.Millisecond,
			NackInterval: 20 * time.Millisecond,
		}
		snd, rcv, err := alf.Connect(s, a, b, ab, ba, acfg)
		if err != nil {
			return p, err
		}

		src := video.NewSource(s, snd, vcfg)
		sink := video.NewSink(s, 0, f7PlayoutDelay, vcfg)
		rcv.OnADU = sink.HandleADU
		rcv.OnLost = sink.HandleLoss
		src.Start(f7Frames)
		if err := s.Run(); err != nil {
			return p, err
		}
		sink.FlushAll(uint32(f7Frames))
		p.ALFOnTimeFrac = float64(sink.Stats.FramesComplete) / float64(f7Frames)
		p.ALFPartialFrac = float64(sink.Stats.FramesPartial) / float64(f7Frames)
		p.ALFResends = snd.Stats.ResentADUs
	}

	// --- Reliable ordered transport carrying the same frames. ---
	{
		s, a, b, ab, ba := twoNodes(seed+1000, linkCfg)
		oc := otp.Config{MSS: 1400, FastRetransmit: true, SendBuffer: 1 << 24}
		snd, rcv := otp.Connect(s, a, b, ab, ba, oc, oc)

		sink := video.NewSink(s, 0, f7PlayoutDelay, vcfg)
		// Slices travel as records over the stream: a 4-byte length and
		// the 8-byte (frame, slice) tag, big-endian, then the zero
		// payload. A tiny record layer carves them and hands them to
		// the sink as ADUs.
		var rbuf []byte
		rcv.OnData = func(d []byte) {
			rbuf = append(rbuf, d...)
			for len(rbuf) >= 12 {
				n := 12 + int(binary.BigEndian.Uint32(rbuf))
				if len(rbuf) < n {
					return
				}
				sink.HandleADU(alf.ADU{Tag: binary.BigEndian.Uint64(rbuf[4:]), Data: rbuf[12:n]})
				rbuf = rbuf[n:]
			}
		}

		// Emit frames on the same schedule as the ALF source. A record
		// the transport refuses ends the run with its error, rather than
		// showing up as a late frame.
		var sendErr error
		var emit func(f int)
		emit = func(f int) {
			if f >= f7Frames {
				return
			}
			for sl := 0; sl < f7Slices; sl++ {
				rec := make([]byte, 12+f7SliceBytes)
				binary.BigEndian.PutUint32(rec, f7SliceBytes)
				binary.BigEndian.PutUint64(rec[4:], video.Tag(uint32(f), uint16(sl)))
				if err := snd.Send(rec); err != nil {
					sendErr = fmt.Errorf("f7: otp send: %w", err)
					return
				}
			}
			s.After(vcfg.Period(), func() { emit(f + 1) })
		}
		emit(0)
		if err := s.Run(); err != nil {
			return p, err
		}
		if sendErr != nil {
			return p, sendErr
		}
		sink.FlushAll(uint32(f7Frames))
		total := sink.Stats.FramesComplete + sink.Stats.FramesPartial + sink.Stats.FramesEmpty
		if total != int64(f7Frames) {
			return p, fmt.Errorf("f7: otp sink accounted %d of %d frames", total, f7Frames)
		}
		p.OTPOnTimeFrac = float64(sink.Stats.FramesComplete) / float64(f7Frames)
		p.OTPRetransmits = snd.Stats.Retransmits
	}
	return p, nil
}

// F8Point compares the three §5 recovery policies on the same lossy
// bulk workload.
type F8Point struct {
	Policy        alf.Policy
	DeliveredFrac float64
	GoodputMbps   float64
	MaxBufferedKB float64 // sender retention high-water mark
	Recomputes    int64
	Resends       int64
	ReportedLost  int64
}

// F8's 2 MB in ADUs of 8 KB on a 50 Mb/s link that loses 3 % of
// packets.
const (
	f8Bytes    = 2 << 20
	f8ADUBytes = 8 << 10
	f8LossPct  = 3.0
	f8LinkBps  = 50e6
)

// RunF8 measures one policy.
func RunF8(seed int64, policy alf.Policy) (F8Point, error) {
	p := F8Point{Policy: policy}

	s, a, b, ab, ba := twoNodes(seed, netsim.LinkConfig{
		RateBps: f8LinkBps, Delay: 5 * time.Millisecond, LossProb: f8LossPct / 100,
	})
	acfg := alf.Config{
		Policy:       policy,
		NackDelay:    10 * time.Millisecond,
		NackInterval: 10 * time.Millisecond,
		MaxNacks:     100,
		HoldTime:     2 * time.Second,
		RateBps:      f8LinkBps,
	}
	snd, rcv, err := alf.Connect(s, a, b, ab, ba, acfg)
	if err != nil {
		return p, err
	}

	// The recompute application: regenerates any chunk from its name.
	mkChunk := func(name uint64, nb int) []byte {
		chunk := make([]byte, nb)
		for i := range chunk {
			chunk[i] = byte(uint64(i) * (name + 1))
		}
		return chunk
	}
	chunkLen := func(name uint64) int {
		off := int(name) * f8ADUBytes
		nb := f8ADUBytes
		if off+nb > f8Bytes {
			nb = f8Bytes - off
		}
		return nb
	}
	snd.OnResend = func(name uint64) (uint64, xcode.SyntaxID, []byte, bool) {
		return name, xcode.SyntaxRaw, mkChunk(name, chunkLen(name)), true
	}

	var delivered int64
	var done sim.Time
	total := (f8Bytes + f8ADUBytes - 1) / f8ADUBytes
	rcv.OnADU = func(adu alf.ADU) {
		delivered += int64(len(adu.Data))
		done = s.Now()
	}
	rcv.OnLost = func(name uint64) { p.ReportedLost++ }

	maxBuf := 0
	for i := 0; i*f8ADUBytes < f8Bytes; i++ {
		name := uint64(i)
		if _, err := snd.Send(name, xcode.SyntaxRaw, mkChunk(name, chunkLen(name))); err != nil {
			return p, err
		}
		if b := snd.BufferedBytes(); b > maxBuf {
			maxBuf = b
		}
	}
	// Track the retention high-water mark while recovery runs.
	var probe *sim.Timer
	probe = s.NewTimer(func() {
		if b := snd.BufferedBytes(); b > maxBuf {
			maxBuf = b
		}
		if rcv.Settled() < uint64(total) {
			probe.Reset(5 * time.Millisecond)
		}
	})
	probe.Reset(5 * time.Millisecond)
	if err := s.Run(); err != nil {
		return p, err
	}

	p.DeliveredFrac = float64(delivered) / float64(f8Bytes)
	if done > 0 {
		p.GoodputMbps = stats.Mbps(delivered, time.Duration(done))
	}
	p.MaxBufferedKB = float64(maxBuf) / 1024
	p.Resends = snd.Stats.ResentADUs
	p.Recomputes = snd.Stats.RecomputeADUs
	return p, nil
}

// F8Policies are the three policies the F8 table compares, in its
// row order.
var F8Policies = []alf.Policy{alf.SenderBuffered, alf.AppRecompute, alf.NoRetransmit}

// A2Point compares in-band (immediate) versus out-of-band (delayed,
// batched) acknowledgement control in the ordered transport.
type A2Point struct {
	AckDelay     sim.Duration
	AcksSent     int64
	AcksPerSeg   float64
	TransferTime sim.Duration
	GoodputMbps  float64
}

// RunA2 measures one ack-delay setting for a bytes-sized transfer.
func RunA2(seed int64, bytes int, ackDelay sim.Duration) (A2Point, error) {
	p := A2Point{AckDelay: ackDelay}
	s, a, b, ab, ba := twoNodes(seed, netsim.LinkConfig{RateBps: 100e6, Delay: 2 * time.Millisecond})
	oc := otp.Config{AckDelay: ackDelay, SendBuffer: bytes + (1 << 20), SendWindow: 1 << 20, RecvWindow: 1 << 20}
	snd, rcv := otp.Connect(s, a, b, ab, ba, oc, oc)

	var done sim.Time
	rcv.OnData = func(d []byte) {
		if rcv.Delivered() == int64(bytes) {
			done = s.Now()
		}
	}
	if err := snd.Send(make([]byte, bytes)); err != nil {
		return p, err
	}
	if err := s.Run(); err != nil {
		return p, err
	}
	if rcv.Delivered() != int64(bytes) {
		return p, fmt.Errorf("a2: delivered %d of %d", rcv.Delivered(), bytes)
	}
	p.AcksSent = rcv.Stats.AcksSent
	if rcv.Stats.SegmentsReceived > 0 {
		p.AcksPerSeg = float64(p.AcksSent) / float64(rcv.Stats.SegmentsReceived)
	}
	p.TransferTime = sim.Duration(done)
	p.GoodputMbps = stats.Mbps(int64(bytes), p.TransferTime)
	return p, nil
}
