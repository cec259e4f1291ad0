// Parallel receiver (paper §7): a parallel processor has no single hot
// spot that can run at the machine's aggregate rate, so incoming data
// must be dispatched to the right processing element directly. Because
// every ADU carries its own delivery information (the tag), an ALF
// receiver dispatches each ADU straight to its worker; a byte-stream
// transport forces everything through one serial reassembly point
// first.
//
//	go run ./examples/parallelsink
package main

import (
	"fmt"
	"log"
	"time"

	alf "repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/parallel"
	"repro/internal/sim"
	"repro/internal/xcode"
)

const (
	totalBytes = 16 << 20
	aduBytes   = 32 << 10
	workerBps  = 12.5e6 // each worker converts 100 Mb/s
)

func main() {
	fmt.Printf("dispatching %d MB of ADUs to worker pools (each worker processes %.0f Mb/s)\n\n",
		totalBytes>>20, workerBps*8/1e6)
	fmt.Println("workers   ALF direct dispatch     serial front end     speedup")
	fmt.Println("-------   --------------------    -----------------    -------")
	for _, workers := range []int{1, 2, 4, 8, 16} {
		alfT := run(workers, false)
		serT := run(workers, true)
		speed := serT.Seconds() / alfT.Seconds()
		fmt.Printf("%4d      %-12v(%6.0f Mb/s)  %-12v(%5.0f Mb/s)  %5.2fx\n",
			workers,
			alfT, float64(totalBytes)*8/1e6/alfT.Seconds(),
			serT, float64(totalBytes)*8/1e6/serT.Seconds(),
			speed)
	}
	fmt.Println("\nthe serial column is flat: the reassembly hot spot caps the machine at one")
	fmt.Println("worker's rate no matter how many processors sit behind it; ALF scales because")
	fmt.Println("each ADU \"contains enough information to control its own delivery\" (§7)")
}

func run(workers int, serial bool) time.Duration {
	sched := sim.NewScheduler()
	net := netsim.New(sched, 3)
	a := net.NewNode("net")
	b := net.NewNode("machine")
	fwd, rev := net.NewDuplex(a, b, netsim.LinkConfig{RateBps: 2e9, Delay: time.Millisecond})

	cfg := alf.Config{MTU: 8192 + alf.HeaderSize, RateBps: 2e9}
	snd, rcv, err := alf.Connect(sched, a, b, fwd, rev, cfg)
	if err != nil {
		log.Fatal(err)
	}

	serialBps := 0.0
	if serial {
		serialBps = workerBps
	}
	pool := parallel.NewPool(sched, workers, workerBps, serialBps)
	rcv.OnADU = pool.HandleADU

	for i := 0; i*aduBytes < totalBytes; i++ {
		if _, err := snd.Send(uint64(i), xcode.SyntaxRaw, make([]byte, aduBytes)); err != nil {
			log.Fatal(err)
		}
	}
	if err := sched.Run(); err != nil {
		log.Fatal(err)
	}
	return time.Duration(pool.LastFinish)
}
