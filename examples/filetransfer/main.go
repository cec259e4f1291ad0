// File transfer with Application Level Framing: every ADU is labeled
// with the offset it occupies in the receiver's file, so the receiver
// writes chunks to their final locations as they arrive — out of
// order, past holes — while an ordered byte-stream transport (the TCP
// model) makes everything behind a lost packet wait.
//
// The demo moves the same file over the same lossy link both ways and
// prints a progress timeline plus a final comparison.
//
//	go run ./examples/filetransfer
package main

import (
	"bytes"
	"fmt"
	"log"
	"time"

	alf "repro/internal/core"
	"repro/internal/filetx"
	"repro/internal/netsim"
	"repro/internal/otp"
	"repro/internal/sim"
	"repro/internal/xcode"
)

const (
	fileSize = 512 << 10 // 512 KB
	aduSize  = 8 << 10
	lossProb = 0.03
)

func makeFile() []byte {
	data := make([]byte, fileSize)
	for i := range data {
		data[i] = byte(uint32(i)*2654435761 + uint32(i>>8))
	}
	return data
}

func main() {
	data := makeFile()

	alfDone, alfFirstGapFill := runALF(data)
	otpDone, otpStallMax := runOTP(data)

	fmt.Println("\n=== comparison ===")
	fmt.Printf("ALF  completed at %v; out-of-order writes filled gaps while recovery ran (first backfill at %v)\n",
		alfDone, alfFirstGapFill)
	fmt.Printf("OTP  completed at %v; longest head-of-line stall with zero progress: %v\n",
		otpDone, otpStallMax)
}

func runALF(data []byte) (done sim.Duration, firstBackfill sim.Duration) {
	sched := sim.NewScheduler()
	net := netsim.New(sched, 7)
	a := net.NewNode("a")
	b := net.NewNode("b")
	fwd, rev := net.NewDuplex(a, b, netsim.LinkConfig{
		RateBps: 50e6, Delay: 5 * time.Millisecond, LossProb: lossProb,
	})
	cfg := alf.Config{
		RateBps:      50e6,
		NackDelay:    10 * time.Millisecond,
		NackInterval: 10 * time.Millisecond,
	}
	snd, rcv, err := alf.Connect(sched, a, b, fwd, rev, cfg)
	if err != nil {
		log.Fatal(err)
	}

	chunks := filetx.Plan(data, aduSize)
	w := filetx.NewWriter(filetx.TotalDst(chunks))
	var maxOffSeen int
	rcv.OnADU = func(adu alf.ADU) {
		if int(adu.Tag) < maxOffSeen && firstBackfill == 0 {
			firstBackfill = sim.Duration(sched.Now())
		}
		if int(adu.Tag) > maxOffSeen {
			maxOffSeen = int(adu.Tag)
		}
		if err := w.Apply(adu); err != nil {
			log.Fatalf("apply: %v", err)
		}
	}
	w.OnComplete = func() { done = sim.Duration(sched.Now()) }

	if _, err := filetx.Send(snd, chunks, xcode.SyntaxRaw); err != nil {
		log.Fatal(err)
	}
	if err := sched.Run(); err != nil {
		log.Fatal(err)
	}
	if !w.Complete() || !bytes.Equal(w.Bytes(), data) {
		log.Fatalf("ALF transfer corrupt (missing %v)", w.MissingRanges())
	}
	fmt.Printf("ALF  file intact at %-12v  resends=%d  out-of-order deliveries=%d\n",
		done, snd.Stats.ResentADUs, rcv.Stats.OutOfOrder)
	return done, firstBackfill
}

func runOTP(data []byte) (done sim.Duration, maxStall sim.Duration) {
	sched := sim.NewScheduler()
	net := netsim.New(sched, 7)
	a := net.NewNode("a")
	b := net.NewNode("b")
	fwd, rev := net.NewDuplex(a, b, netsim.LinkConfig{
		RateBps: 50e6, Delay: 5 * time.Millisecond, LossProb: lossProb,
	})
	cfg := otp.Config{MSS: 1024, FastRetransmit: true, SendBuffer: fileSize + (1 << 20)}
	snd, rcv := otp.Connect(sched, a, b, fwd, rev, cfg, cfg)

	out := make([]byte, 0, fileSize)
	var lastProgress sim.Time
	rcv.OnData = func(d []byte) {
		if stall := sim.Duration(sched.Now() - lastProgress); stall > maxStall && len(out) > 0 {
			maxStall = stall
		}
		lastProgress = sched.Now()
		out = append(out, d...)
		if len(out) == fileSize {
			done = sim.Duration(sched.Now())
		}
	}
	if err := snd.Send(data); err != nil {
		log.Fatal(err)
	}
	if err := sched.Run(); err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(out, data) {
		log.Fatal("OTP transfer corrupt")
	}
	fmt.Printf("OTP  file intact at %-12v  retransmits=%d  timeouts=%d\n",
		done, snd.Stats.Retransmits, snd.Stats.Timeouts)
	return done, maxStall
}
