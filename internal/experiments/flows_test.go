package experiments

import "testing"

// TestFlowScaleNearLinear asserts the PR's scaling claim in miniature:
// aggregate virtual-time throughput grows near-linearly with the shard
// count, because each shard owns its trunk and no serializing hot spot
// exists between them. The measurement is virtual time, so the
// assertion is deterministic and holds under -race on any host —
// BenchmarkFlowScale is the same curve at benchmark scale. Each point's
// virtual-time figures are pinned too, so a change to how the shard
// plane is driven cannot move what it computes.
func TestFlowScaleNearLinear(t *testing.T) {
	pins := map[int]struct {
		events     uint64
		virtualSec float64
		maxQueue   int64
		aggMbps    float64
	}{
		1: {36864, 0.036506944, 746, 919.1246465329992},
		2: {36864, 0.018353472, 374, 1828.2334808367593},
		4: {36864, 0.0092856, 189, 3613.5986904454207},
		8: {36864, 0.004747232, 96, 7068.209853657879},
	}
	var pts []FlowScalePoint
	for _, n := range []int{1, 2, 4, 8} {
		p, err := RunFlowScale(FlowScaleConfig{
			Flows:    4096,
			FlowADUs: 2,
			ADUBytes: 512,
			Seed:     6,
			Shards:   n,
			Workers:  n,
		})
		if err != nil {
			t.Fatal(err)
		}
		if w := pins[n]; p.EventsFired != w.events || p.VirtualSec != w.virtualSec ||
			p.MaxTrunkQueue != w.maxQueue || p.AggMbps != w.aggMbps {
			t.Fatalf("shards=%d: events=%d makespan=%v maxq=%d agg=%v, want %d %v %d %v",
				n, p.EventsFired, p.VirtualSec, p.MaxTrunkQueue, p.AggMbps,
				w.events, w.virtualSec, w.maxQueue, w.aggMbps)
		}
		pts = append(pts, p)
	}
	base := pts[0].AggMbps
	if base <= 0 {
		t.Fatalf("1-shard baseline throughput %v", base)
	}
	for _, p := range pts {
		t.Logf("shards=%d workers=%d flows=%d agg=%.1f vMb/s makespan=%.3fvs maxq=%d events=%d",
			p.Shards, p.Workers, p.Flows, p.AggMbps, p.VirtualSec, p.MaxTrunkQueue, p.EventsFired)
		speedup := p.AggMbps / base
		// Near-linear: each doubling of shards must keep >=75% parallel
		// efficiency against the 1-shard baseline.
		if min := 0.75 * float64(p.Shards); speedup < min {
			t.Fatalf("shards=%d: speedup %.2fx < %.2fx (agg %.1f vs base %.1f vMb/s)",
				p.Shards, speedup, min, p.AggMbps, base)
		}
	}
	// The acceptance criterion itself: >=3x aggregate at 8 shards vs 1.
	if s8 := pts[3].AggMbps / base; s8 < 3 {
		t.Fatalf("8-shard aggregate only %.2fx the 1-shard baseline, want >=3x", s8)
	}
}

// TestFlowScaleDeterministic: the flow-scale experiment itself is
// reproducible — same config, same point, bit for bit.
func TestFlowScaleDeterministic(t *testing.T) {
	cfg := FlowScaleConfig{Flows: 512, Shards: 4, FlowADUs: 2, Seed: 11}
	a, err := RunFlowScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFlowScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a.WallSec, a.EventsPerSec = 0, 0
	b.WallSec, b.EventsPerSec = 0, 0
	if a != b {
		t.Fatalf("flow-scale point not reproducible:\n got %+v\nwant %+v", b, a)
	}
}
