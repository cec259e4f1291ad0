package experiments

// The flow-scale experiment: §7's parallel-receiver claim at
// population scale. A sharded endpoint carries F concurrent ALF flows
// hashed over N shards, each shard owning a scheduler, a buffer arena,
// and a trunk of capacity R. Because ADUs route themselves (an 8-byte
// shard-local label in front of each packet), no serializing hot spot
// exists, and the endpoint should sustain ~N x R aggregate virtual
// throughput — the near-linear scaling curve in docs/SCALING.md.
//
// Two clocks are reported and must not be conflated. Virtual-time
// throughput (AggMbps, ADUsPerVSec) is the architectural result: it
// is host-independent, deterministic for a seed, and scales with the
// shard count because each shard brings its own trunk. Wall-clock
// (WallSec, EventsPerSec) is the simulator's own cost; it improves
// with Workers only on hosts with that many cores.

import (
	"fmt"
	"time"

	alf "repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/xcode"
)

// FlowScaleConfig parameterizes one flow-scale run.
type FlowScaleConfig struct {
	Flows    int // concurrent flows (default 65536)
	Shards   int // shards; the scaling-curve x axis (default 1)
	Workers  int // goroutines draining shards (default Shards)
	FlowADUs int // ADUs per flow (default 4)
	ADUBytes int // payload bytes per ADU (default 512)
	Seed     int64
}

func (c *FlowScaleConfig) fill() {
	if c.Flows == 0 {
		c.Flows = 65536
	}
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.Workers == 0 {
		c.Workers = c.Shards
	}
	if c.FlowADUs == 0 {
		c.FlowADUs = 4
	}
	if c.ADUBytes == 0 {
		c.ADUBytes = 512
	}
}

// Each shard's trunk rate, and the offered load as a fraction of it.
const (
	flowTrunkBps = 1e9
	flowLoad     = 1.1
)

// FlowScalePoint is one point of the scaling curve.
type FlowScalePoint struct {
	Flows, Shards, Workers int

	DeliveredADUs int64
	PayloadBytes  int64   // payload delivered
	VirtualSec    float64 // makespan: virtual time of the last delivery
	AggMbps       float64 // payload bits per virtual second, all shards
	ADUsPerVSec   float64 // delivery rate in virtual time
	MaxTrunkQueue int64   // deepest per-shard trunk backlog (packets)

	WallSec      float64 // host time for the whole run
	EventsFired  uint64  // scheduler callbacks executed
	EventsPerSec float64 // EventsFired / WallSec: simulator cost
}

// flowDriver submits one flow's ADUs as a self-rescheduling event
// chain, so F flows hold F pending events rather than F x ADUs. The
// events are pooled (AfterCall) and the drivers one slice, so driving
// allocates nothing per ADU.
type flowDriver struct {
	flow *alf.Flow
	data []byte
	gap  sim.Duration
	k    int
	adus int
}

func fireDriver(a any) {
	d := a.(*flowDriver)
	if _, err := d.flow.Sender.Send(uint64(d.k), xcode.SyntaxRaw, d.data); err != nil {
		panic(fmt.Sprintf("flowscale: send: %v", err))
	}
	d.k++
	if d.k < d.adus {
		d.flow.Shard().Scheduler().AfterCall(d.gap, fireDriver, d)
	}
}

// RunFlowScale drives cfg.Flows concurrent flows through a sharded
// endpoint to quiescence and reports the point. Flow starts are
// staggered so each shard's trunk sees flowLoad x its rate: the trunk
// stays saturated (the measurement is capacity, not idleness) while
// its queue stays bounded (MaxTrunkQueue, reported, guards that).
func RunFlowScale(cfg FlowScaleConfig) (FlowScalePoint, error) {
	cfg.fill()
	p := FlowScalePoint{Flows: cfg.Flows, Shards: cfg.Shards, Workers: cfg.Workers}

	ep, err := alf.NewSharded(alf.ShardedConfig{
		Shards:  cfg.Shards,
		Workers: cfg.Workers,
		Seed:    cfg.Seed,
		Flow: alf.Config{
			// NoRetransmit on a clean trunk: no retention state, so a
			// million senders stay small. The confirm loop (heartbeat
			// -> cum release) still runs and quiesces each stream.
			Policy: alf.NoRetransmit,
			// Slow heartbeats: a flow is live for most of the run, and
			// F flows probing at the default 20 ms would swamp the
			// event count without informing the measurement.
			HeartbeatInterval:    time.Second,
			HeartbeatMaxInterval: time.Second,
		},
		Link: netsim.LinkConfig{RateBps: flowTrunkBps, Delay: 200 * time.Microsecond},
	})
	if err != nil {
		return p, err
	}

	data := make([]byte, cfg.ADUBytes)
	for i := range data {
		data[i] = byte(i * 31)
	}

	// Offered-load spacing: each flow emits one ADU per gap, so a shard
	// holding S flows offers S*wireBits/gap = flowLoad * flowTrunkBps.
	perShard := cfg.Flows / cfg.Shards
	if perShard < 1 {
		perShard = 1
	}
	wireBits := float64(cfg.ADUBytes+alf.HeaderSize+8) * 8 // + label prefix
	gap := sim.Duration(float64(perShard) * wireBits / (flowLoad * flowTrunkBps) * 1e9)
	if gap < time.Microsecond {
		gap = time.Microsecond
	}

	perShardIdx := make([]int, cfg.Shards)
	drivers := make([]flowDriver, cfg.Flows)
	for id := range drivers {
		f, err := ep.AddFlow(alf.FlowID(id))
		if err != nil {
			return p, err
		}
		d := &drivers[id]
		*d = flowDriver{flow: f, data: data, gap: gap, adus: cfg.FlowADUs}
		// Spread this shard's flows uniformly across one gap period.
		sh := f.Shard().Index()
		start := gap * sim.Duration(perShardIdx[sh]) / sim.Duration(perShard)
		perShardIdx[sh]++
		f.Shard().Scheduler().AtCall(sim.Time(start), fireDriver, d)
	}

	wall := time.Now()
	ep.Run()
	p.WallSec = time.Since(wall).Seconds()

	st := ep.Stats()
	want := int64(cfg.Flows) * int64(cfg.FlowADUs)
	if st.Recv.ADUsDelivered != want {
		return p, fmt.Errorf("flowscale: delivered %d of %d ADUs (lost %d)",
			st.Recv.ADUsDelivered, want, st.Recv.ADUsLost)
	}
	p.DeliveredADUs = st.Recv.ADUsDelivered
	p.PayloadBytes = st.Recv.DeliveredBytes
	p.VirtualSec = ep.LastDelivery().Seconds()
	if p.VirtualSec > 0 {
		p.AggMbps = float64(p.PayloadBytes) * 8 / 1e6 / p.VirtualSec
		p.ADUsPerVSec = float64(p.DeliveredADUs) / p.VirtualSec
	}
	p.MaxTrunkQueue = st.Trunk.MaxQueue
	p.EventsFired = ep.Fired()
	if p.WallSec > 0 {
		p.EventsPerSec = float64(p.EventsFired) / p.WallSec
	}
	return p, nil
}
