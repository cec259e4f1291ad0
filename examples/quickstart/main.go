// Quickstart: send Application Data Units across a lossy simulated link
// and watch them arrive — out of order, each delivered the moment it
// completes, with losses recovered by whole-ADU retransmission.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	alf "repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/xcode"
)

func main() {
	// A scheduler drives everything in virtual time; the run is
	// deterministic given the seed.
	sched := sim.NewScheduler()
	net := netsim.New(sched, 42)

	// Two nodes joined by a 10 Mb/s duplex link that loses 10% of
	// packets.
	src := net.NewNode("sender")
	dst := net.NewNode("receiver")
	fwd, rev := net.NewDuplex(src, dst, netsim.LinkConfig{
		RateBps:  10e6,
		Delay:    5 * time.Millisecond,
		LossProb: 0.10,
	})

	// An ALF stream: the sender fragments ADUs and retransmits whole
	// ADUs when the receiver reports them missing. Connect puts the
	// two ends on the nodes: data goes src -> dst on fwd, the
	// receiver's NACKs come back on rev, and each node's handler
	// feeds its endpoint.
	cfg := alf.Config{
		NackDelay:    10 * time.Millisecond,
		NackInterval: 10 * time.Millisecond,
	}
	snd, rcv, err := alf.Connect(sched, src, dst, fwd, rev, cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Deliveries arrive as complete ADUs, possibly out of order — the
	// application decides what the names and tags mean.
	rcv.OnADU = func(adu alf.ADU) {
		fmt.Printf("%8v  ADU %2d arrived (tag=%d, %d bytes) %s\n",
			sched.Now(), adu.Name, adu.Tag, len(adu.Data),
			map[bool]string{true: "", false: " <- out of order"}[adu.Name == 0 || adu.Name <= rcv.Settled()],
		)
	}

	// Send ten 4 KB ADUs, tagged with their logical offset.
	for i := 0; i < 10; i++ {
		payload := make([]byte, 4096)
		for j := range payload {
			payload[j] = byte(i)
		}
		if _, err := snd.Send(uint64(i*4096), xcode.SyntaxRaw, payload); err != nil {
			log.Fatal(err)
		}
	}

	if err := sched.Run(); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\ndone at %v (virtual time)\n", sched.Now())
	fmt.Printf("sender:   %d ADUs, %d fragments, %d whole-ADU resends\n",
		snd.Stats.ADUs, snd.Stats.Fragments, snd.Stats.ResentADUs)
	fmt.Printf("receiver: %d delivered (%d out of order), %d duplicate fragments dropped\n",
		rcv.Stats.ADUsDelivered, rcv.Stats.OutOfOrder, rcv.Stats.DupFragments)
}
