// Real-time video over a lossy link: the stream uses ALF's NoRetransmit
// policy — ADUs are (frame, slice) units, losses are reported to the
// application in those terms, and the playout deadline renders whatever
// arrived. No retransmission ever delays a later frame.
//
//	go run ./examples/videostream
package main

import (
	"fmt"
	"log"
	"strings"
	"time"

	alf "repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/video"
)

func main() {
	sched := sim.NewScheduler()
	net := netsim.New(sched, 99)
	a := net.NewNode("camera")
	b := net.NewNode("display")
	fwd, rev := net.NewDuplex(a, b, netsim.LinkConfig{
		RateBps: 20e6, Delay: 10 * time.Millisecond, LossProb: 0.04,
	})

	cfg := alf.Config{
		Policy:       alf.NoRetransmit,
		HoldTime:     150 * time.Millisecond,
		NackInterval: 20 * time.Millisecond,
	}
	snd, rcv, err := alf.Connect(sched, a, b, fwd, rev, cfg)
	if err != nil {
		log.Fatal(err)
	}

	vcfg := video.SourceConfig{FPS: 30, SlicesPerFrame: 8, SliceBytes: 1200}
	source := video.NewSource(sched, snd, vcfg)
	sink := video.NewSink(sched, 0, 40*time.Millisecond, vcfg)
	rcv.OnADU = sink.HandleADU
	rcv.OnLost = sink.HandleLoss

	const frames = 90
	var bar []string
	sink.OnFrame = func(r video.FrameReport) {
		switch {
		case r.Complete:
			bar = append(bar, "█")
		case r.Slices > 0:
			bar = append(bar, "▒")
		default:
			bar = append(bar, "·")
		}
	}

	source.Start(frames)
	if err := sched.Run(); err != nil {
		log.Fatal(err)
	}
	sink.FlushAll(frames)

	fmt.Println("3 seconds of 30 fps video over a 4%-loss link, 40 ms playout budget")
	fmt.Println("█ complete frame   ▒ partial frame (rendered with missing slices)   · lost frame")
	for off := 0; off < len(bar); off += 30 {
		end := off + 30
		if end > len(bar) {
			end = len(bar)
		}
		fmt.Printf("  %s\n", strings.Join(bar[off:end], ""))
	}
	st := sink.Stats
	fmt.Printf("\nframes: %d complete, %d partial, %d empty (of %d)\n",
		st.FramesComplete, st.FramesPartial, st.FramesEmpty, frames)
	fmt.Printf("slices: %d on time, %d late; sender resends: %d (policy %v)\n",
		st.SlicesOnTime, st.SlicesLate, snd.Stats.ResentADUs, cfg.Policy)
}
