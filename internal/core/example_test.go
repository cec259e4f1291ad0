package alf_test

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"repro/internal/buf"
	alf "repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/xcode"
)

// Example shows the minimal ALF round trip: two endpoints on a
// simulated link, three ADUs delivered with their application tags.
func Example() {
	sched := sim.NewScheduler()
	net := netsim.New(sched, 1)
	a := net.NewNode("a")
	b := net.NewNode("b")
	fwd, rev := net.NewDuplex(a, b, netsim.LinkConfig{Delay: time.Millisecond})

	snd, rcv, _ := alf.Connect(sched, a, b, fwd, rev, alf.Config{})

	rcv.OnADU = func(adu alf.ADU) {
		fmt.Printf("ADU %d: tag=%d, %d bytes\n", adu.Name, adu.Tag, len(adu.Data))
	}

	for i := 0; i < 3; i++ {
		snd.Send(uint64(100+i), xcode.SyntaxRaw, make([]byte, 64))
	}
	sched.Run()
	// Output:
	// ADU 0: tag=100, 64 bytes
	// ADU 1: tag=101, 64 bytes
	// ADU 2: tag=102, 64 bytes
}

// ExamplePolicy demonstrates the three loss-recovery options of the
// paper's §5, selected per stream.
func ExamplePolicy() {
	for _, p := range []alf.Policy{alf.SenderBuffered, alf.AppRecompute, alf.NoRetransmit} {
		fmt.Println(p)
	}
	// Output:
	// sender-buffered
	// app-recompute
	// no-retransmit
}

// ExampleSharded drives a small flow population through the sharded
// endpoint (§7, docs/SCALING.md): flows hash over per-shard
// schedulers and trunks, workers execute the shards in parallel, and
// the merged delivery log is deterministic — the same for any worker
// count. Each flow's submission goes on its shard's scheduler, and
// each shard logs its own deliveries; a stable sort by time over the
// logs in shard order merges them.
func ExampleSharded() {
	ep, _ := alf.NewSharded(alf.ShardedConfig{
		Shards:  2,
		Workers: 2, // execution only: results identical at any value
		Seed:    1,
		Link:    netsim.LinkConfig{RateBps: 8e6, Delay: time.Millisecond},
	})
	type delivery struct {
		at    sim.Time
		flow  alf.FlowID
		name  uint64
		bytes int
	}
	logs := make([][]delivery, 2) // each written by its shard's worker only
	for id := alf.FlowID(0); id < 4; id++ {
		f, _ := ep.AddFlow(id)
		sh, deliver := f.Shard(), f.Receiver.OnADU
		f.Receiver.OnADU = func(adu alf.ADU) {
			logs[sh.Index()] = append(logs[sh.Index()], delivery{sh.Scheduler().Now(), id, adu.Name, len(adu.Data)})
			deliver(adu)
		}
		sh.Scheduler().At(0, func() { f.Sender.Send(uint64(1000+id), xcode.SyntaxRaw, make([]byte, 512)) })
	}
	ep.Run()
	log := slices.Concat(logs...)
	slices.SortStableFunc(log, func(a, b delivery) int { return cmp.Compare(a.at, b.at) })
	for _, d := range log {
		fmt.Printf("flow %d on shard %d: ADU %d, %d bytes at %v\n",
			d.flow, alf.ShardOf(d.flow, 2), d.name, d.bytes, d.at)
	}
	// Output:
	// flow 0 on shard 0: ADU 0, 512 bytes at 1.554ms
	// flow 1 on shard 1: ADU 0, 512 bytes at 1.554ms
	// flow 2 on shard 0: ADU 0, 512 bytes at 2.108ms
	// flow 3 on shard 1: ADU 0, 512 bytes at 2.108ms
}

// ExampleSender_Send shows how the application's own naming information
// (here, a file offset) travels with each ADU as the tag.
func ExampleSender_Send() {
	sched := sim.NewScheduler()
	snd, _ := alf.NewSender(sched, nil, alf.Config{}) // no heartbeats
	// Data leaves by reference; this sink owns each packet and drops it.
	snd.SendRef = func(pkt *buf.Ref) error { pkt.Release(); return nil }

	file := make([]byte, 10_000)
	const chunk = 4096
	for off := 0; off < len(file); off += chunk {
		end := off + chunk
		if end > len(file) {
			end = len(file)
		}
		name, _ := snd.Send(uint64(off), xcode.SyntaxRaw, file[off:end])
		fmt.Printf("ADU %d carries file[%d:%d]\n", name, off, end)
	}
	// Output:
	// ADU 0 carries file[0:4096]
	// ADU 1 carries file[4096:8192]
	// ADU 2 carries file[8192:10000]
}
