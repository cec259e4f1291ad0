package alf

// The sharded endpoint: the paper's §7 argument made executable. "If
// the data is organized into ADUs, each ADU will contain enough
// information to control its own delivery" — so a receiver (or a whole
// transport node) can be split into parallel shards with no
// serializing hot spot. This file provides that split for up to
// millions of concurrent ALF flows:
//
//   - A flow table hashes every flow (ShardOf) onto one of N shards,
//     which gives it a label: its index in the shard's own table. The
//     label rides in front of each of the flow's packets, so the shard
//     finds the flow by one index, as a switch finds an ATM circuit
//     by its VCI.
//   - Each shard owns a private event scheduler, a private buf.Pool
//     arena, and a private netsim.Network with its own trunk links and
//     seeded RNG. Shards share nothing, so each runs alone to
//     quiescence on a parallel goroutine, with no locks, no barriers
//     and no false sharing.
//
// The execution model separates two knobs deliberately. Shards is
// topology: it fixes the flow hash, the per-shard RNG seeds, and the
// trunk capacity layout, so it is part of the experiment's identity.
// Workers is execution: how many OS goroutines drain those shards
// concurrently. Changing Workers must never change any virtual-time
// result — the determinism tests hold exactly that.

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/buf"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// FlowID names one flow of a sharded endpoint. It picks the flow's
// shard (ShardOf) and is not on the wire: in front of every ALF packet
// rides an 8-byte encapsulation prefix (Config.encap) holding the
// flow's label, its index in its shard's flow table, so the shard
// routes a packet to its flow by one index without parsing ALF headers
// — a link-local label, as an ATM VCI is, and the packet's own
// information is the dispatch key (§7).
type FlowID uint64

// labelSize is the wire size of the label prefix.
const labelSize = 8

// ShardOf maps a flow to its owning shard: a Fibonacci hash of the id
// folded onto [0, shards). Flows with adjacent ids land on different
// shards, so a contiguous id range load-balances evenly.
func ShardOf(id FlowID, shards int) int {
	h := uint64(id) * 0x9E3779B97F4A7C15
	return int((h >> 32) * uint64(shards) >> 32)
}

// ShardedConfig parameterizes a sharded endpoint.
type ShardedConfig struct {
	// Shards is the number of logical shards (default 1). Shards is
	// part of the topology: it determines the flow hash, per-shard RNG
	// seeds, and how many trunk links carry the load. Two runs with
	// different Shards are different experiments.
	Shards int
	// Workers bounds the goroutines draining shards in parallel
	// (default Shards). Purely an execution knob: results are
	// identical for any value.
	Workers int
	// Seed derives every shard's netsim RNG (seed ^ shard-specific
	// mix), so one value pins the whole run.
	Seed int64
	// Flow is the per-flow Config template. StreamID, Pool, encap, and
	// Metrics are overwritten per flow/shard; everything else (Policy,
	// MTU, rates, FEC, ...) applies to each flow as written. Tracer
	// must be nil when Workers > 1 (the span recorder is not
	// shard-safe).
	Flow Config
	// Link configures each shard's duplex trunk (client<->server).
	// RateBps is per-shard capacity: N shards carry N times this
	// aggregate, which is exactly the scaling claim the flow-scale
	// experiment measures (docs/SCALING.md; on the wall clock, the
	// benchmark's flows_sharded_64k workload).
	Link netsim.LinkConfig
}

func (c *ShardedConfig) fill() {
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.Workers == 0 {
		c.Workers = c.Shards
	}
}

// Flow is one ALF stream of a sharded endpoint: a Sender on the
// shard's client node and a Receiver on its server node, wired through
// the shard's trunk. Both halves run on the owning shard's scheduler;
// touch them only from that shard's callbacks or while the endpoint
// is idle.
type Flow struct {
	ID       FlowID
	Sender   Sender
	Receiver Receiver

	shard    *Shard
	encap    [labelSize]byte // the label
	hb, scan sim.Timer       // the Sender's and the Receiver's
}

// flowSlab is the most flows one allocation of a shard's slab holds.
const flowSlab = 1024

// Shard returns the flow's owning shard: submissions and other
// follow-on work go on its scheduler.
func (f *Flow) Shard() *Shard { return f.shard }

// Shard is one parallel slice of a sharded endpoint. Everything it
// reaches — scheduler, pool arena, network, flows — is private to it.
type Shard struct {
	index int
	sched *sim.Scheduler
	pool  *buf.Pool
	net   *netsim.Network
	// client hosts the senders, server the receivers; up/down are the
	// two directions of the shard's trunk.
	client, server *netsim.Node
	up, down       *netsim.Link

	flows []*Flow             // by label
	ids   map[FlowID]struct{} // for AddFlow's duplicate check
	slab  []Flow              // the flows, in chunks of at most flowSlab; the last one fills

	// The hooks all its flows share. deliver is the default OnADU: replace
	// it before Run (the replacement runs on the shard's worker).
	ctrlUp, ctrlDown func([]byte) error
	dataUp           func(*buf.Ref) error
	deliver          func(ADU)
	spare            spares

	last sim.Time // most recent delivery (default OnADU handler)
}

// Index returns the shard's position in the endpoint.
func (sh *Shard) Index() int { return sh.index }

// Scheduler returns the shard's private event scheduler.
func (sh *Shard) Scheduler() *sim.Scheduler { return sh.sched }

// flowOf returns the flow a trunk packet's label names (nil if none)
// and the ALF packet behind the label.
func (sh *Shard) flowOf(p *netsim.Packet) (*Flow, []byte) {
	if len(p.Payload) < labelSize {
		return nil, nil
	}
	if l := binary.BigEndian.Uint64(p.Payload); l < uint64(len(sh.flows)) {
		return sh.flows[l], p.Payload[labelSize:]
	}
	return nil, nil
}

// demuxData routes an arriving trunk packet (DATA, HB) to its flow's
// receiver.
func (sh *Shard) demuxData(p *netsim.Packet) {
	if f, pkt := sh.flowOf(p); f != nil {
		_ = f.Receiver.HandlePacket(pkt)
	}
}

// demuxCtrl routes a returning trunk packet (CTRL, FB) to its flow's
// sender.
func (sh *Shard) demuxCtrl(p *netsim.Packet) {
	if f, pkt := sh.flowOf(p); f != nil {
		_ = f.Sender.HandleControl(pkt)
	}
}

// Sharded is a transport endpoint sharded over N parallel workers: the
// flow table and the shard array. Construct with NewSharded, add flows,
// schedule traffic, Run.
type Sharded struct {
	cfg    ShardedConfig
	shards []*Shard
}

// NewSharded builds the shard array: per shard one scheduler, one pool
// arena, one seeded network with a duplex trunk, and the demux
// handlers. The flow table starts empty.
func NewSharded(cfg ShardedConfig) (*Sharded, error) {
	if cfg.Shards < 0 || cfg.Workers < 0 {
		return nil, fmt.Errorf("%w: negative Shards/Workers", ErrConfig)
	}
	if err := cfg.Flow.Validate(); err != nil {
		return nil, err
	}
	if cfg.Flow.Tracer != nil && (cfg.Workers > 1 || cfg.Workers == 0 && cfg.Shards > 1) {
		return nil, fmt.Errorf("%w: Flow.Tracer is not shard-safe with Workers > 1", ErrConfig)
	}
	cfg.fill()
	cfg.Flow.ledger = cfg.Flow.ledger.orNew() // the flows share one
	t := &Sharded{cfg: cfg}
	for i := 0; i < cfg.Shards; i++ {
		sh := &Shard{
			index: i,
			sched: sim.NewScheduler(),
			pool:  buf.NewPool(),
			ids:   make(map[FlowID]struct{}),
		}
		// Mix the shard index into the seed so shards draw independent
		// impairment sequences from one experiment seed.
		sh.net = netsim.New(sh.sched, cfg.Seed^int64(uint64(i+1)*0x9E3779B97F4A7C15))
		sh.net.SetPool(sh.pool)
		sh.client = sh.net.NewNode("client")
		sh.server = sh.net.NewNode("server")
		sh.up, sh.down = sh.net.NewDuplex(sh.client, sh.server, cfg.Link)
		sh.client.SetHandler(sh.demuxCtrl)
		sh.server.SetHandler(sh.demuxData)
		sh.ctrlUp, sh.ctrlDown, sh.dataUp = sh.up.Send, sh.down.Send, sh.up.SendRef
		sh.deliver = func(adu ADU) { sh.last = sh.sched.Now(); adu.Release() }
		t.shards = append(t.shards, sh)
	}
	return t, nil
}

// LastDelivery returns the virtual time of the latest ADU delivery
// across all shards — the workload makespan, free of the parked
// timers Run fires after it. Only maintained by the default per-flow
// OnADU handler.
func (t *Sharded) LastDelivery() sim.Time {
	var max sim.Time
	for _, sh := range t.shards {
		if sh.last > max {
			max = sh.last
		}
	}
	return max
}

// Fired returns the total events executed across all shard schedulers.
func (t *Sharded) Fired() uint64 {
	var total uint64
	for _, sh := range t.shards {
		total += sh.sched.Fired()
	}
	return total
}

// AddFlow creates flow id on its hash-assigned shard and returns it.
// Call only while the endpoint is idle (before Run or between runs).
func (t *Sharded) AddFlow(id FlowID) (*Flow, error) {
	sh := t.shards[ShardOf(id, len(t.shards))]
	if _, dup := sh.ids[id]; dup {
		return nil, fmt.Errorf("%w: duplicate flow id %d", ErrConfig, id)
	}
	if len(sh.slab) == cap(sh.slab) {
		// Chunks double up to flowSlab, so a small endpoint stays small
		// and a large one costs an allocation per flowSlab flows.
		sh.slab = make([]Flow, 0, min(max(2*cap(sh.slab), 8), flowSlab))
	}
	f := &sh.slab[:len(sh.slab)+1][len(sh.slab)] // taken only once its endpoints init
	*f = Flow{ID: id, shard: sh}
	binary.BigEndian.PutUint64(f.encap[:], uint64(len(sh.flows)))

	cfg := t.cfg.Flow
	cfg.StreamID = byte(id) // secondary check; the label routes
	cfg.Key = flowKey(cfg.Key, id)
	cfg.Pool = sh.pool
	cfg.Metrics = nil // per-flow series would not scale; Stats aggregates flows
	cfg.encap = f.encap[:]

	if suites[cfg.Suite].chained {
		fc := new(flowCrypto)
		f.Sender.crypto, f.Receiver.crypto = &fc.seal, &fc.open
	}
	if err := f.Sender.init(sh.sched, sh.ctrlUp, cfg, &f.hb, &sh.spare); err != nil {
		return nil, err
	}
	if err := f.Receiver.init(sh.sched, sh.ctrlDown, cfg, &f.scan, &sh.spare); err != nil {
		return nil, err
	}
	f.Sender.SendRef, f.Receiver.OnADU = sh.dataUp, sh.deliver
	sh.slab = sh.slab[:len(sh.slab)+1]
	sh.flows = append(sh.flows, f)
	sh.ids[id] = struct{}{}
	return f, nil
}

// Run drains every shard's scheduler to quiescence, up to Workers
// shards at a time. Shards share nothing, so each runs alone to its
// end; a worker that finishes one claims the next through an atomic
// cursor (cheap work stealing), so a slow shard never leaves idle
// workers behind a static partition. Senders' heartbeat/retire timers
// park themselves once their streams settle, so a healthy run
// terminates on its own.
func (t *Sharded) Run() {
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	drain := func() {
		defer wg.Done()
		for i := int(next.Add(1)) - 1; i < len(t.shards); i = int(next.Add(1)) - 1 {
			_ = t.shards[i].sched.Run()
		}
	}
	workers := min(t.cfg.Workers, len(t.shards))
	wg.Add(workers)
	for w := 1; w < workers; w++ {
		go drain()
	}
	drain()
	wg.Wait()
}

// ShardedStats aggregates every flow's endpoint counters and every
// trunk's link counters. Field-by-field sums of the per-flow structs;
// computed on demand, so call it while the endpoint is idle.
type ShardedStats struct {
	Flows int
	Send  SenderStats
	Recv  ReceiverStats
	Trunk netsim.LinkStats // both directions of every shard trunk
}

// Stats sweeps shards and flows and returns the aggregate.
func (t *Sharded) Stats() ShardedStats {
	var out ShardedStats
	for _, sh := range t.shards {
		out.Flows += len(sh.flows)
		for _, f := range sh.flows {
			metrics.AddStats(&out.Send, &f.Sender.Stats)
			metrics.AddStats(&out.Recv, &f.Receiver.Stats)
		}
		metrics.AddStats(&out.Trunk, &sh.up.Stats)
		metrics.AddStats(&out.Trunk, &sh.down.Stats)
	}
	return out
}
