package sim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Group is a set of per-shard Schedulers that can be drained in
// parallel. It is the kernel-level half of the repository's sharded
// endpoint (§7 of the paper): instead of one global event queue
// serializing every timer in the simulation, each shard owns a private
// Scheduler — its events, timers, and pooled freelists are touched by
// exactly one goroutine at a time — and shards only interact at
// explicit barriers.
//
// Two execution regimes are offered:
//
//   - RunUntil drains the shards fully independently. Use it when the
//     shards share no mutable state at all.
//   - RunEpochs alternates parallel epochs with a single-threaded
//     exchange callback: within an epoch every shard advances alone to
//     the epoch boundary; at the barrier the exchange runs with all
//     shard clocks aligned and may move work between shards. This is
//     the conservative-synchronization pattern from parallel
//     discrete-event simulation, with the epoch length playing the
//     role of lookahead.
//
// Determinism contract: the virtual-time outcome of a Group run is a
// pure function of the per-shard event schedules and the exchange
// callback. The workers argument controls only how many OS goroutines
// drain shards concurrently — it must never change results, because a
// shard's events are totally ordered by its own (time, seq) heap and
// cross-shard effects happen only in the single-threaded exchange.
type Group struct {
	shards []*Scheduler
}

// NewGroup returns a group of n independent schedulers, all with their
// clocks at zero. n must be at least 1.
func NewGroup(n int) *Group {
	if n < 1 {
		panic(fmt.Sprintf("sim: group size %d < 1", n))
	}
	g := &Group{shards: make([]*Scheduler, n)}
	for i := range g.shards {
		g.shards[i] = NewScheduler()
	}
	return g
}

// Len returns the number of shards.
func (g *Group) Len() int { return len(g.shards) }

// Shard returns shard i's scheduler. The caller may schedule onto it
// freely between runs; during a parallel run a shard's scheduler must
// only be touched from its own callbacks (or from the exchange).
func (g *Group) Shard(i int) *Scheduler { return g.shards[i] }

// Now returns the maximum shard clock. After RunUntil or a RunEpochs
// barrier all shard clocks agree, and Now is that common time.
func (g *Group) Now() Time {
	var max Time
	for _, s := range g.shards {
		if s.now > max {
			max = s.now
		}
	}
	return max
}

// Pending returns the total number of queued events across shards.
func (g *Group) Pending() int {
	total := 0
	for _, s := range g.shards {
		total += s.Pending()
	}
	return total
}

// Fired returns the total number of callbacks executed across shards.
func (g *Group) Fired() uint64 {
	var total uint64
	for _, s := range g.shards {
		total += s.Fired()
	}
	return total
}

// clampWorkers bounds the goroutine count to [1, shards], defaulting
// workers <= 0 to GOMAXPROCS.
func (g *Group) clampWorkers(workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(g.shards) {
		workers = len(g.shards)
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// each drains every shard with fn, using up to workers goroutines.
// Shards are claimed via an atomic cursor (cheap work stealing), so a
// slow shard never leaves idle workers behind a static partition.
func (g *Group) each(workers int, fn func(*Scheduler)) {
	workers = g.clampWorkers(workers)
	if workers == 1 {
		for _, s := range g.shards {
			fn(s)
		}
		return
	}
	var (
		cursor atomic.Int64
		wg     sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(g.shards) {
					return
				}
				fn(g.shards[i])
			}
		}()
	}
	wg.Wait()
}

// RunUntil advances every shard to exactly deadline, firing all events
// scheduled at or before it, using up to workers goroutines.
func (g *Group) RunUntil(deadline Time, workers int) {
	g.each(workers, func(s *Scheduler) { s.RunUntil(deadline) })
}

// RunEpochs drains the group in barrier-synchronized epochs of virtual
// length epoch. Within an epoch each shard runs independently (in
// parallel, up to workers goroutines) to the epoch boundary; then
// exchange, if non-nil, is invoked single-threaded with the boundary
// time, free to inspect every shard and schedule cross-shard events at
// or after that time. The loop ends when every shard's queue is empty
// and exchange reports no further work by returning false; exchange's
// return value is ignored while shard events remain.
func (g *Group) RunEpochs(epoch Duration, workers int, exchange func(now Time) bool) {
	if epoch <= 0 {
		panic(fmt.Sprintf("sim: epoch %v <= 0", epoch))
	}
	for {
		deadline := g.Now().Add(epoch)
		g.RunUntil(deadline, workers)
		more := false
		if exchange != nil {
			more = exchange(deadline)
		}
		if g.Pending() == 0 && !more {
			return
		}
	}
}
