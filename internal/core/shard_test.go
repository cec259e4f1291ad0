package alf

import (
	"bytes"
	"cmp"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"
	"unsafe"

	"repro/internal/buf"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/xcode"
)

// TestShardOfBalance: the Fibonacci hash spreads a contiguous id range
// evenly and deterministically.
func TestShardOfBalance(t *testing.T) {
	const shards, flows = 8, 10000
	var counts [shards]int
	for id := 0; id < flows; id++ {
		s := ShardOf(FlowID(id), shards)
		if s < 0 || s >= shards {
			t.Fatalf("ShardOf(%d, %d) = %d out of range", id, shards, s)
		}
		counts[s]++
	}
	for s, c := range counts {
		if c < flows/shards/2 || c > flows/shards*2 {
			t.Fatalf("shard %d holds %d of %d flows (poor balance: %v)", s, c, flows, counts)
		}
	}
	if ShardOf(12345, 8) != ShardOf(12345, 8) {
		t.Fatal("ShardOf not deterministic")
	}
}

// submit schedules one ADU submission on f's shard at virtual time at.
// data is read when the event fires, so flows may share one payload.
func submit(t *testing.T, f *Flow, at sim.Time, tag uint64, data []byte) {
	f.Shard().Scheduler().At(at, func() {
		if _, err := f.Sender.Send(tag, xcode.SyntaxRaw, data); err != nil {
			t.Error(err)
		}
	})
}

// delivery is one delivered ADU in a shard's log.
type delivery struct {
	At    sim.Time
	Flow  FlowID
	Name  uint64
	Bytes int
}

// shardedTraffic builds a sharded endpoint, schedules a fixed traffic
// matrix, runs it to quiescence, and returns the delivery log and
// aggregate stats. Each shard logs its own deliveries, and the logs
// merge by a stable sort on time taken in shard order, so the merged
// log is ordered by (time, shard, order within the shard) and two runs
// that agree per shard agree as a whole. Everything about the run is
// pinned except the worker count — the knob the determinism test turns.
func shardedTraffic(t *testing.T, workers int) ([]delivery, ShardedStats) {
	t.Helper()
	const shards = 4
	ep, err := NewSharded(ShardedConfig{
		Shards:  shards,
		Workers: workers,
		Seed:    42,
		Flow: Config{
			Policy:    SenderBuffered,
			NackDelay: 5 * time.Millisecond,
			HoldTime:  500 * time.Millisecond,
		},
		Link: netsim.LinkConfig{
			RateBps:  8e6,
			Delay:    2 * time.Millisecond,
			LossProb: 0.05,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	const flows, adus = 48, 4
	payload := make([]byte, 1500)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	logs := make([][]delivery, shards) // each written by its shard's worker only
	for id := 0; id < flows; id++ {
		f, err := ep.AddFlow(FlowID(id))
		if err != nil {
			t.Fatal(err)
		}
		sh, deliver := f.Shard(), f.Receiver.OnADU
		f.Receiver.OnADU = func(adu ADU) {
			logs[sh.Index()] = append(logs[sh.Index()], delivery{sh.Scheduler().Now(), f.ID, adu.Name, len(adu.Data)})
			deliver(adu)
		}
		for k := 0; k < adus; k++ {
			// Stagger submissions so shard queues interleave in time.
			submit(t, f, sim.Time(id*100_000+k*3_000_000), uint64(k), payload)
		}
	}
	ep.Run()
	st := ep.Stats()
	if st.Recv.ADUsDelivered+st.Recv.ADUsLost != flows*adus {
		t.Fatalf("workers=%d: %d delivered + %d lost != %d submitted",
			workers, st.Recv.ADUsDelivered, st.Recv.ADUsLost, flows*adus)
	}
	if st.Recv.ADUsDelivered == 0 {
		t.Fatalf("workers=%d: nothing delivered", workers)
	}
	log := slices.Concat(logs...)
	slices.SortStableFunc(log, func(a, b delivery) int { return cmp.Compare(a.At, b.At) })
	return log, st
}

// TestShardedDeterministicAcrossWorkers is the PR's §7 safety claim:
// the worker count is pure execution parallelism. Same seed, same
// shards -> byte-identical delivery order and identical aggregate
// stats for 1, 2, and 8 workers, on a lossy reordering network with
// live NACK recovery. Run under -race this also proves the shard
// isolation: no two goroutines ever touch one shard's state.
func TestShardedDeterministicAcrossWorkers(t *testing.T) {
	baseLog, baseStats := shardedTraffic(t, 1)
	for _, workers := range []int{2, 8} {
		log, stats := shardedTraffic(t, workers)
		if !reflect.DeepEqual(stats, baseStats) {
			t.Fatalf("workers=%d: stats diverge from workers=1:\n got %+v\nwant %+v", workers, stats, baseStats)
		}
		if len(log) != len(baseLog) {
			t.Fatalf("workers=%d: %d deliveries, want %d", workers, len(log), len(baseLog))
		}
		for i := range log {
			if log[i] != baseLog[i] {
				t.Fatalf("workers=%d: delivery %d = %+v, want %+v", workers, i, log[i], baseLog[i])
			}
		}
	}
}

// TestShardedEncapRoundtrip: the 8-byte label prefix routes
// data, heartbeats, control, and feedback between the right endpoint
// pairs even when many flows share a trunk, and the feedback loop's
// byte accounting balances (no phantom loss from the stripped prefix).
func TestShardedEncapRoundtrip(t *testing.T) {
	ep, err := NewSharded(ShardedConfig{
		Shards: 1,
		Seed:   3,
		Flow: Config{
			Policy:           SenderBuffered,
			RateBps:          64e6,
			FeedbackInterval: 10 * time.Millisecond,
		},
		Link: netsim.LinkConfig{RateBps: 64e6, Delay: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	const flows = 3
	payload := make([]byte, 4096)
	for id := 0; id < flows; id++ {
		f, err := ep.AddFlow(FlowID(id))
		if err != nil {
			t.Fatal(err)
		}
		submit(t, f, 0, 9, payload)
	}
	ep.Run()
	st := ep.Stats()
	if st.Recv.ADUsDelivered != flows {
		t.Fatalf("delivered %d of %d", st.Recv.ADUsDelivered, flows)
	}
	// Lossless path: the receivers' encap-adjusted wire count must match
	// the senders' exactly, or the §3 loop would see phantom loss.
	if st.Recv.WireBytes != st.Send.WireBytes {
		t.Fatalf("wire accounting skewed: recv %d != sent %d (encap %d bytes/pkt)",
			st.Recv.WireBytes, st.Send.WireBytes, labelSize)
	}
	if st.Send.FeedbackRecv == 0 {
		t.Fatal("no feedback crossed the encapsulated control path")
	}
	if st.Send.Released != flows {
		t.Fatalf("released %d of %d buffered ADUs", st.Send.Released, flows)
	}
}

// TestShardFlowsDistinctKeystream: flows 1 and 257 share a StreamID
// (the id's low byte) and the endpoint's key, yet each enciphers under
// a key of its own, so the XOR of their first ciphertexts is not the
// XOR of their plaintexts as it would be under one keystream, and each
// receiver still opens its own flow's ADU.
func TestShardFlowsDistinctKeystream(t *testing.T) {
	for _, suite := range []CipherSuite{SuiteScramble, SuiteAEAD} {
		ep, err := NewSharded(ShardedConfig{Flow: Config{Suite: suite, Key: 0xC0FFEE}})
		if err != nil {
			t.Fatal(err)
		}
		plain := [2][]byte{payload(64, 1), payload(64, 40)}
		var sent, got [2][]byte
		for i, id := range []FlowID{1, 257} {
			f, err := ep.AddFlow(id)
			if err != nil {
				t.Fatal(err)
			}
			up, deliver := f.Sender.SendRef, f.Receiver.OnADU
			f.Sender.SendRef = func(ref *buf.Ref) error {
				if sent[i] == nil {
					sent[i] = bytes.Clone(ref.Bytes()[labelSize+HeaderSize:][:64])
				}
				return up(ref)
			}
			f.Receiver.OnADU = func(adu ADU) {
				got[i] = bytes.Clone(adu.Data)
				deliver(adu)
			}
			submit(t, f, 0, 0, plain[i])
		}
		ep.Run()
		same := true
		for j := range sent[0] {
			same = same && sent[0][j]^sent[1][j] == plain[0][j]^plain[1][j]
		}
		if same {
			t.Errorf("%v: flows 1 and 257 encipher ADU 0 under one keystream", suite)
		}
		for i := range got {
			if !bytes.Equal(got[i], plain[i]) {
				t.Errorf("%v: flow %d delivered %x, want %x", suite, i, got[i], plain[i])
			}
		}
	}
}

// A Sender is per-flow state, and the shard plane makes 65 536 of them
// in flows_sharded_64k. The runtime puts a pointerful object over 512
// bytes in the smallest size class that holds it and an 8-byte header:
// 768 bytes now (744 and the header), 896 past it, which would be 128
// bytes more per flow.
func TestSenderSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(Sender{}); n+8 > 768 {
		t.Fatalf("Sender is %d bytes: with its allocation header it no longer fits the 768-byte size class", n)
	}
}

// A Receiver is per-flow state too, in the 704-byte class. Neither
// endpoint holds any crypto state: what a suite with a tag needs only
// for a call (the chain, the MAC and the lanes) is in the spares its
// shard's flows share.
func TestReceiverSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(Receiver{}); n+8 > 704 {
		t.Fatalf("Receiver is %d bytes: with its allocation header it no longer fits the 704-byte size class", n)
	}
}

// Every flow of a sharded endpoint seals under its own keystream, which
// the nonce ledger (make ledger) checks at every seal: its flows share
// one ledger, so two of them sealing other bytes at the same position of
// one keystream panic here, whatever they deliver. Three hundred flows,
// which take every StreamID more than once, each send one ADU of bytes
// of their own under both enciphering suites, and each must deliver it.
// The ADUs are three fragments long, so under SuiteAEAD every flow's
// seal runs through its shard's shared chain and lanes across fragment
// and run boundaries alike.
func TestShardFlowsSealUnderTheLedger(t *testing.T) {
	for _, suite := range []CipherSuite{SuiteScramble, SuiteAEAD} {
		ep, err := NewSharded(ShardedConfig{Shards: 2, Workers: 2, Flow: Config{Suite: suite, Key: 0xC0FFEE, Policy: NoRetransmit}})
		if err != nil {
			t.Fatal(err)
		}
		const flows = 300
		var got [flows]int // each written by its flow's shard only
		for id := 0; id < flows; id++ {
			f, err := ep.AddFlow(FlowID(id))
			if err != nil {
				t.Fatal(err)
			}
			want := payload(2500, 7)
			want[0], want[1] = byte(id>>8), byte(id)
			if n := f.Sender.cfg.grid.frags(len(want)); n != 3 {
				t.Fatalf("%v: the ADU is %d fragments, want 3", suite, n)
			}
			deliver := f.Receiver.OnADU
			f.Receiver.OnADU = func(adu ADU) {
				if bytes.Equal(adu.Data, want) {
					got[id]++
				}
				deliver(adu)
			}
			submit(t, f, 0, 0, want)
		}
		ep.Run()
		for id, n := range got {
			if n != 1 {
				t.Fatalf("%v: flow %d delivered its ADU %d times", suite, id, n)
			}
		}
	}
}

// The flows of a shard share one runLanes, so its fill must be its
// owner's. Three AEAD flows of one shard each send name 0, an ADU of the
// same ten fragments (two runs, fragments starting mid-block), one after
// the other: every packet each emits is, once the label is stripped, the
// one a lone Sender emits under that flow's Config, its key
// flowKey(key, id). A fill that ignored its owner would hand the second
// flow the first's tag keys and heads.
func TestShardLanesSealAsLone(t *testing.T) {
	tmpl := Config{Suite: SuiteAEAD, Key: 0xC0FFEE, Policy: NoRetransmit, FECGroup: 4}
	ep, err := NewSharded(ShardedConfig{Flow: tmpl})
	if err != nil {
		t.Fatal(err)
	}
	for id := FlowID(1); id <= 3; id++ {
		f, err := ep.AddFlow(id)
		if err != nil {
			t.Fatal(err)
		}
		var got [][]byte
		up := f.Sender.SendRef
		f.Sender.SendRef = func(ref *buf.Ref) error {
			got = append(got, bytes.Clone(ref.Bytes()[labelSize:]))
			return up(ref)
		}
		data := payload(9*f.Sender.cfg.grid.fp+200, byte(id))
		if _, err := f.Sender.Send(0, xcode.SyntaxRaw, data); err != nil {
			t.Fatal(err)
		}
		cfg := tmpl
		cfg.StreamID, cfg.Key = byte(id), flowKey(tmpl.Key, id)
		var want [][]byte
		lone := capturingSender(t, cfg, &want)
		if _, err := lone.Send(0, xcode.SyntaxRaw, data); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("flow %d emitted %d packets, a lone sender %d", id, len(got), len(want))
		}
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("flow %d: packet %d is not the lone sender's", id, i)
			}
		}
	}
	ep.Run()
}

// The receiving half of TestShardLanesSealAsLone: lone senders of three
// flows of one shard seal name 0, ten fragments each, and the shard's
// receivers take them interleaved (A k0, B k0, C k0, A k1, ...), so
// every fragment finds the shared lanes filled for another flow. Each
// ADU arrives intact and no tag fails. A sender and a receiver that both
// ignored the owner would agree on the wrong keys, which is why each
// half has its own test.
func TestShardLanesOpenInterleaved(t *testing.T) {
	tmpl := Config{Suite: SuiteAEAD, Key: 0xC0FFEE, Policy: NoRetransmit}
	ep, err := NewSharded(ShardedConfig{Flow: tmpl})
	if err != nil {
		t.Fatal(err)
	}
	var flows []*Flow
	var pkts [][][]byte
	got := map[FlowID][]byte{}
	for id := FlowID(1); id <= 3; id++ {
		f, err := ep.AddFlow(id)
		if err != nil {
			t.Fatal(err)
		}
		f.Receiver.OnADU = func(adu ADU) {
			got[id] = bytes.Clone(adu.Data)
			adu.Release()
		}
		cfg := tmpl
		cfg.StreamID, cfg.Key = byte(id), flowKey(tmpl.Key, id)
		var sealed [][]byte
		lone := capturingSender(t, cfg, &sealed)
		if _, err := lone.Send(0, xcode.SyntaxRaw, payload(9*lone.cfg.grid.fp+200, byte(id))); err != nil {
			t.Fatal(err)
		}
		flows, pkts = append(flows, f), append(pkts, sealed)
	}
	for k := range pkts[0] {
		for i, f := range flows {
			if err := f.Receiver.HandlePacket(pkts[i][k]); err != nil {
				t.Fatalf("flow %d fragment %d: %v", f.ID, k, err)
			}
		}
	}
	for _, f := range flows {
		if want := payload(9*f.Receiver.cfg.grid.fp+200, byte(f.ID)); !bytes.Equal(got[f.ID], want) {
			t.Errorf("flow %d: delivered %d bytes, want its own %d", f.ID, len(got[f.ID]), len(want))
		}
		if n := f.Receiver.Stats.AuthFails; n != 0 {
			t.Errorf("flow %d: %d tags failed", f.ID, n)
		}
	}
	ep.Run()
}

// TestAddFlowAllocs pins what a flow costs to build, the set-up of
// flows_sharded_64k: a slot of its shard's slab, which holds the Flow
// with its Sender, Receiver and their heartbeat and scan timers inside,
// and whose chunks each serve up to flowSlab flows. The hooks are the
// shard's, and the timers call static functions, so no flow has a
// closure. Without an ADUDeadline or a FeedbackInterval there is no
// retire or feedback timer. The slab's chunks and the flow table's
// growth round away over many flows. An enciphering flow costs no more
// than a cleartext one, in allocations or in bytes: its chain, MAC and
// lanes are its shard's, made once (spares).
func TestAddFlowAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	const flows = 16384
	perFlow := func(suite CipherSuite) (allocs, bytes float64) {
		cfg := Config{Policy: NoRetransmit, Suite: suite}
		if suite != SuiteNone {
			cfg.Key = 0xC0FFEE
		}
		ep, err := NewSharded(ShardedConfig{Shards: 4, Flow: cfg})
		if err != nil {
			t.Fatal(err)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for id := FlowID(0); id < flows; id++ {
			if _, err := ep.AddFlow(id); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&m1)
		return float64(m1.Mallocs-m0.Mallocs) / flows, float64(m1.TotalAlloc-m0.TotalAlloc) / flows
	}
	clearAllocs, clearBytes := perFlow(SuiteNone)
	aeadAllocs, aeadBytes := perFlow(SuiteAEAD)
	t.Logf("per flow: cleartext %.3f allocs, %.0f B; AEAD %.3f allocs, %.0f B", clearAllocs, clearBytes, aeadAllocs, aeadBytes)
	for suite, allocs := range map[CipherSuite]float64{SuiteNone: clearAllocs, SuiteAEAD: aeadAllocs} {
		if allocs > 0.05 {
			t.Errorf("AddFlow under %v: %.3f allocs per flow, want <= 0.05", suite, allocs)
		}
	}
	if aeadBytes > clearBytes+64 {
		t.Errorf("AddFlow under SuiteAEAD: %.0f B per flow, more than 64 B over a cleartext flow's %.0f", aeadBytes, clearBytes)
	}
}

// TestFlowRunAllocs: flows share their shard's reassembly state,
// receive windows, worklists, control-frame buffer and, under SuiteAEAD,
// the seal and open scratch, and events come from the schedulers'
// freelists, so once an endpoint is warm a new batch of flows runs
// through its first ADUs allocating (next to) nothing: one-fragment
// cleartext ADUs, and AEAD ADUs of three fragments, whose seals cross
// the shared chain and whose opens refill the shared lanes. The
// submissions are built before the run that is counted.
func TestFlowRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	for _, arm := range []struct {
		cfg         Config
		size, frags int
	}{
		{Config{Policy: NoRetransmit}, 512, 1},
		{Config{Policy: NoRetransmit, Suite: SuiteAEAD, Key: 0xC0FFEE}, 2500, 3},
	} {
		ep, err := NewSharded(ShardedConfig{
			Shards:  2,
			Workers: 2,
			Seed:    5,
			Flow:    arm.cfg,
			Link:    netsim.LinkConfig{RateBps: 1e9, Delay: 200 * time.Microsecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		suite, data := arm.cfg.Suite, payload(arm.size, 7)
		const flows, adus = 512, 4
		batch := func(first FlowID) {
			for id := first; id < first+flows; id++ {
				f, err := ep.AddFlow(id)
				if err != nil {
					t.Fatal(err)
				}
				if n := f.Sender.cfg.grid.frags(len(data)); n != arm.frags {
					t.Fatalf("%v: an ADU is %d fragments, want %d", suite, n, arm.frags)
				}
				now := f.Shard().Scheduler().Now()
				for k := 0; k < adus; k++ {
					submit(t, f, now+sim.Time(int(id)%64*10_000+k*1_000_000), uint64(k), data)
				}
			}
		}
		batch(0)
		ep.Run() // warms the pools, the event and record free lists, the spares
		batch(flows)
		before := ep.Stats().Recv.ADUsDelivered
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		ep.Run()
		runtime.ReadMemStats(&m1)
		delivered := ep.Stats().Recv.ADUsDelivered - before
		if delivered != flows*adus {
			t.Fatalf("%v: second batch delivered %d of %d ADUs", suite, delivered, flows*adus)
		}
		if per := float64(m1.Mallocs-m0.Mallocs) / float64(delivered); per > 0.05 {
			t.Errorf("%v: Run over a warm endpoint: %.3f allocs per delivered ADU, want <= 0.05", suite, per)
		}
	}
}

// TestRecycledPartialIsClean: a shard's receivers share their
// reassembly structs, so what one flow's ADU leaves in a struct must
// not show in the next flow's. On each of two shards run by two
// workers, flow A completes an ADU while its partial holds data-offset
// entries and an FEC parity; flow B then reassembles an ADU on the
// same struct, one fragment lost and rebuilt from parity, and must
// deliver exactly its own bytes and count exactly its own events.
func TestRecycledPartialIsClean(t *testing.T) {
	ep, err := NewSharded(ShardedConfig{
		Shards:  2,
		Workers: 2,
		Seed:    9,
		Flow: Config{
			Policy:   SenderBuffered,
			Suite:    SuiteAEAD,
			Key:      0xC0FFEE,
			FECGroup: 2,
			MTU:      HeaderSize + 16 + 64, // 64-byte fragments
		},
		Link: netsim.LinkConfig{RateBps: 8e6, Delay: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	pa, pb := payload(256, 1), payload(200, 5) // four fragments each, B's last short
	type pair struct {
		a, b *Flow
		got  [][]byte
	}
	pairs := make([]pair, 2)
	for id := FlowID(0); pairs[0].b == nil || pairs[1].b == nil; id++ {
		p := &pairs[ShardOf(id, 2)]
		if p.b != nil {
			continue
		}
		f, err := ep.AddFlow(id)
		if err != nil {
			t.Fatal(err)
		}
		if p.a == nil {
			p.a = f
		} else {
			p.b = f
		}
	}
	for i := range pairs {
		p := &pairs[i]
		p.b.Receiver.OnADU = func(adu ADU) {
			p.got = append(p.got, append([]byte(nil), adu.Data...))
			adu.Release()
		}
		// B's second data fragment is lost on its way out, once.
		up, frag := p.b.Sender.SendRef, 0
		p.b.Sender.SendRef = func(ref *buf.Ref) error {
			if frag++; frag == 2 {
				ref.Release()
				return nil
			}
			return up(ref)
		}
		submit(t, p.a, 0, 1, pa)
		submit(t, p.b, sim.Time(50*time.Millisecond), 2, pb)
	}
	ep.Run()
	for i, p := range pairs {
		if a := p.a.Receiver.Stats; a.ADUsDelivered != 1 || a.ParityFrags == 0 {
			t.Fatalf("shard %d: flow A delivered %d ADUs holding %d parities; the struct it leaves is not the one under test",
				i, a.ADUsDelivered, a.ParityFrags)
		}
		if n := len(ep.shards[i].spare.parts); n != 1 {
			t.Fatalf("shard %d: %d reassembly structs, want A's one reused by B", i, n)
		}
		b := p.b.Receiver.Stats
		if len(p.got) != 1 || !bytes.Equal(p.got[0], pb) {
			t.Errorf("shard %d: flow B delivered %d ADUs, want exactly its own %d bytes", i, len(p.got), len(pb))
		}
		if b.DupFragments != 0 || b.Inconsistent != 0 || b.FECRecovered != 1 || b.AuthFails != 0 ||
			b.ChecksumFails != 0 || b.DeliveredBytes != int64(len(pb)) {
			t.Errorf("shard %d: flow B counts %+v; want no duplicates, inconsistencies or auth failures, one FEC rebuild, %d bytes",
				i, b, len(pb))
		}
	}
}

// TestShardedSendZeroAlloc extends the alloc-guard to the sharded hot
// path: Send -> packetize (encap headroom) -> label stamp -> trunk
// SendRef -> demux -> HandlePacket -> deliver -> Release, across two
// shards' private arenas. Steady state must not allocate.
func TestShardedSendZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	ep, err := NewSharded(ShardedConfig{
		Shards: 2,
		Seed:   1,
		Flow:   Config{Policy: NoRetransmit},
	})
	if err != nil {
		t.Fatal(err)
	}
	// One flow per shard, found by probing the hash.
	var fa, fb *Flow
	for id := FlowID(0); fa == nil || fb == nil; id++ {
		f, err := ep.AddFlow(id)
		if err != nil {
			t.Fatal(err)
		}
		if ShardOf(id, 2) == 0 && fa == nil {
			fa = f
		} else if ShardOf(id, 2) == 1 && fb == nil {
			fb = f
		}
	}
	data := make([]byte, benchADUBytes)
	for i := range data {
		data[i] = byte(i)
	}
	send := func() {
		for _, f := range []*Flow{fa, fb} {
			if _, err := f.Sender.Send(0, xcode.SyntaxRaw, data); err != nil {
				t.Fatal(err)
			}
			s := f.shard.sched
			_ = s.RunUntil(s.Now()) // zero-delay trunk: drain without advancing time
		}
	}
	for i := 0; i < 8; i++ {
		send() // warm both shards' pools, packet freelists, event freelists
	}
	if allocs := testing.AllocsPerRun(100, send); allocs != 0 {
		t.Fatalf("sharded steady-state datapath allocates %v allocs/op, want 0", allocs)
	}
	st := ep.Stats()
	if st.Recv.ADUsDelivered == 0 || st.Recv.ADUsDelivered != st.Send.ADUs {
		t.Fatalf("delivered %d of %d", st.Recv.ADUsDelivered, st.Send.ADUs)
	}
}

// TestShardedStatsSumsEveryField fills every counter of every flow and
// trunk with a distinct value and checks the aggregate field by field,
// by reflection, so a counter added to a Stats struct is summed
// without anyone remembering to: sums everywhere, the maximum for the
// trunk's high-water queue depth.
func TestShardedStatsSumsEveryField(t *testing.T) {
	ep, err := NewSharded(ShardedConfig{Shards: 2, Workers: 1, Link: netsim.LinkConfig{RateBps: 1e6}})
	if err != nil {
		t.Fatal(err)
	}
	// fill sets field i of *st to seed*(i+1) and adds the same into the
	// matching entry of want (or keeps the maximum for MaxQueue).
	fill := func(st any, seed int64, want map[string]int64) {
		v := reflect.ValueOf(st).Elem()
		for i := 0; i < v.NumField(); i++ {
			name, n := v.Type().Field(i).Name, seed*int64(i+1)
			v.Field(i).SetInt(n)
			if name == "MaxQueue" {
				want[name] = max(want[name], n)
			} else {
				want[name] += n
			}
		}
	}
	send, recv, trunk := map[string]int64{}, map[string]int64{}, map[string]int64{}
	const flows = 5
	for id := 0; id < flows; id++ {
		f, err := ep.AddFlow(FlowID(id))
		if err != nil {
			t.Fatal(err)
		}
		fill(&f.Sender.Stats, int64(id+1), send)
		fill(&f.Receiver.Stats, int64(100*(id+1)), recv)
	}
	for i, sh := range ep.shards {
		fill(&sh.up.Stats, int64(7+i), trunk)
		fill(&sh.down.Stats, int64(3+i), trunk)
	}

	got := ep.Stats()
	if got.Flows != flows {
		t.Errorf("Flows = %d, want %d", got.Flows, flows)
	}
	check := func(agg any, want map[string]int64) {
		v := reflect.ValueOf(agg)
		for i := 0; i < v.NumField(); i++ {
			if name := v.Type().Field(i).Name; v.Field(i).Int() != want[name] {
				t.Errorf("%v.%s = %d, want %d", v.Type(), name, v.Field(i).Int(), want[name])
			}
		}
	}
	check(got.Send, send)
	check(got.Recv, recv)
	check(got.Trunk, trunk)
}
