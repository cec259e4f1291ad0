// Package relay implements a custody-transfer store-and-forward node:
// the DTN answer to paths whose round trip is minutes and whose links
// go dark for tens of minutes at a time (solar conjunction). End-to-end
// recovery across such a path multiplies every loss by the full RTT;
// a custody relay cuts each recovery loop down to one hop.
//
// The relay sits between two duplex link pairs and forwards the ALF
// wire protocol transparently — DATA and heartbeats downstream, control
// and feedback upstream — while taking *custody* of the ADU fragments
// that pass through it:
//
//   - Every valid DATA fragment is retained (by reference, no copy —
//     the same pooled buffer the network carries) in a bounded store.
//     When an ADU is complete in the store, the relay emits a
//     custody-ack wire frame upstream: the upstream custodian (the
//     original sender, or another relay) releases its own copy and
//     stops answering NACKs for that name. Responsibility has moved
//     one hop downstream (Sender.Stats.CustodyReleased on the far
//     end).
//
//   - Receiver NACKs are intercepted: names complete in the store are
//     answered locally — the stored fragments are re-emitted downstream
//     and the NACK never crosses the slow upstream hops. The remaining
//     names are re-encoded and forwarded upstream, so recovery of data
//     the relay never saw still works end to end.
//
//   - When the downstream link comes back from an outage (observed by
//     polling, the way a bundle agent watches its convergence layer),
//     the relay re-originates everything still in custody: the data
//     crossed the dark window parked one hop away instead of minutes
//     upstream. A slow periodic retry backstops lost re-originations.
//
//   - Storage is bounded (Config.StorageLimit). When an arriving
//     fragment would exceed the bound, the oldest non-Critical ADU is
//     evicted first (the application said what must survive — §2's
//     survivability argument applied to relay storage); if everything
//     stored is Critical, the arriving fragment is shed instead of
//     displacing custody the relay already acknowledged. Critical ADUs
//     are never evicted.
//
// The receiver's cumulative frontier (seen in forwarded control
// messages) clears custody: names below it are settled end to end and
// their storage is released. A custody ack arriving from a further
// downstream relay clears custody the same way — custody chains
// hop by hop.
package relay

import (
	"fmt"

	"repro/internal/buf"
	alf "repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Errors. Test with errors.Is (alf.ErrConfig wraps every rejection).
var errConfig = alf.ErrConfig

// Config parameterizes one relay. Zero fields take defaults except
// CustodyTimer, which is required: a custody relay that never
// acknowledges strands its upstream custodian's retention forever.
type Config struct {
	// Name labels the relay in metrics (default "relay").
	Name string
	// RelayID is stamped into custody-ack frames so upstream tracing
	// can attribute releases (0 is fine for a single relay).
	RelayID byte
	// StorageLimit bounds the custody store in stored wire bytes
	// (headers included; default 8 MiB). Past it, oldest non-Critical
	// ADUs are evicted; arriving fragments are shed when nothing is
	// evictable.
	StorageLimit int
	// CustodyTimer batches custody acknowledgments: completions are
	// acked at most this long after they happen, so a burst of small
	// ADUs shares ack frames. Required > 0.
	CustodyTimer sim.Duration
	// RetryInterval, when non-zero, re-originates everything still in
	// custody this often (skipped while the downstream link is down).
	// It is the slow backstop for lost re-originations; set it well
	// above the downstream round trip or the duplicates are pure
	// overhead.
	RetryInterval sim.Duration
	// HealPoll is how often the relay samples the downstream link's
	// administrative state while it holds custody (default 1 s). A
	// down-to-up transition triggers immediate re-origination of the
	// whole store.
	HealPoll sim.Duration
	// Metrics, if non-nil, registers the relay's counters and storage
	// gauges, labeled relay=<Name>.
	Metrics *metrics.Registry
}

// Validate rejects configurations that cannot mean anything sensible,
// with a descriptive error naming the field (same contract as
// alf.Config.Validate; errors wrap alf.ErrConfig).
func (c *Config) Validate() error {
	if c.StorageLimit < 0 {
		return fmt.Errorf("%w: relay StorageLimit %d is negative", errConfig, c.StorageLimit)
	}
	if c.CustodyTimer <= 0 {
		return fmt.Errorf("%w: relay CustodyTimer %v is not positive; a custody relay that never acknowledges strands its upstream custodian", errConfig, c.CustodyTimer)
	}
	if c.RetryInterval < 0 {
		return fmt.Errorf("%w: relay RetryInterval %v is negative", errConfig, c.RetryInterval)
	}
	if c.HealPoll < 0 {
		return fmt.Errorf("%w: relay HealPoll %v is negative", errConfig, c.HealPoll)
	}
	return nil
}

func (c *Config) fill() {
	if c.Name == "" {
		c.Name = "relay"
	}
	if c.StorageLimit == 0 {
		c.StorageLimit = 8 << 20
	}
	if c.HealPoll == 0 {
		c.HealPoll = sim.Duration(1e9)
	}
}

// Stats counts relay events.
type Stats struct {
	Fragments      int64 `metric:"fragments"`       // DATA fragments arrived
	FwdFragments   int64 `metric:"fwd_fragments"`   // DATA fragments forwarded downstream
	StoredFrags    int64 `metric:"stored_frags"`    // fragments taken into the custody store
	DupFrags       int64 `metric:"dup_frags"`       // fragments already in custody (not re-stored)
	ADUsComplete   int64 `metric:"adus_complete"`   // ADUs fully assembled in custody
	CustodyAckTX   int64 `metric:"custody_acks"`    // custody-ack frames emitted upstream
	ADUsAcked      int64 `metric:"adus_acked"`      // ADUs acknowledged upstream
	NacksSeen      int64 `metric:"nacks_seen"`      // NACK names in intercepted control messages
	NacksAnswered  int64 `metric:"nacks_answered"`  // NACKs served from the custody store
	NacksForwarded int64 `metric:"nacks_forwarded"` // NACKs re-encoded for the upstream hop
	RetxADUs       int64 `metric:"retx_adus"`       // ADU re-originations (NACK, heal, or retry)
	RetxFrags      int64 `metric:"retx_frags"`      // fragments re-emitted downstream
	Evicted        int64 `metric:"evicted"`         // ADUs evicted to fit new custody
	EvictedBytes   int64 `metric:"evicted_bytes"`
	ShedFrags      int64 `metric:"shed_frags"`                  // arriving fragments refused (store unevictable)
	Cleared        int64 `metric:"cleared"`                     // ADUs cleared by the downstream frontier
	CtrlForwarded  int64 `metric:"ctrl_forwarded"`              // control messages forwarded upstream
	FBForwarded    int64 `metric:"fb_forwarded"`                // feedback reports forwarded upstream
	HBForwarded    int64 `metric:"hb_forwarded"`                // heartbeats forwarded downstream
	CAConsumed     int64 `metric:"ca_consumed"`                 // custody acks consumed from a downstream relay
	Heals          int64 `metric:"heals"`                       // downstream down->up transitions observed
	BadFrames      int64 `metric:"bad_frames"`                  // unparseable frames passed through opaquely
	MaxStoredBytes int64 `metric:"stored_peak_bytes,gauge,max"` // custody-store high-water mark
}

// key identifies one ADU across the streams sharing the relay.
type key struct {
	stream byte
	name   uint64
}

// entry is one ADU's custody state: the stamped wire packets
// themselves, retained by reference (re-origination re-emits the same
// buffers, so custody costs no copies), and the byte range each covers.
type entry struct {
	frags    []*buf.Ref
	spans    []span
	gotBytes int
	totalLen int
	wire     int // stored wire bytes (storage accounting)
	critical bool
	complete bool
	acked    bool
}

// span is one stored fragment's byte range within its ADU.
type span struct{ off, n int }

// overlaps reports whether [off, off+n) is held already, or overlaps a
// range held: counted twice, its bytes would pass for data it lacks.
func (e *entry) overlaps(off, n int) bool {
	for _, s := range e.spans {
		if s.off == off || s.off < off+n && off < s.off+s.n {
			return true
		}
	}
	return false
}

func (e *entry) release() {
	for _, f := range e.frags {
		f.Release()
	}
	e.frags = nil
}

// Relay is one custody node. It installs itself as its netsim node's
// handler; everything else is timers.
type Relay struct {
	cfg   Config
	sched *sim.Scheduler
	up    *netsim.Link // toward the upstream custodian (control direction)
	down  *netsim.Link // toward the receiver (data direction)

	store   map[key]*entry
	order   []key            // insertion order: deterministic iteration, oldest first
	stored  int              // bytes in store
	evicted map[key]struct{} // names shed/evicted/claimed downstream: do not re-store
	cums    map[byte]uint64  // highest receiver frontier seen per stream
	pending []key            // completions awaiting the batched custody ack

	ack      *sim.Timer // batches custody acks (CustodyTimer)
	poll     *sim.Timer // heal detection + retry backstop (HealPoll)
	wasDown  bool
	lastRetx sim.Time

	Stats Stats
}

// New creates a relay on node, forwarding data toward down and control
// toward up. The node's handler is replaced.
func New(sched *sim.Scheduler, node *netsim.Node, up, down *netsim.Link, cfg Config) (*Relay, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.fill()
	r := &Relay{
		cfg:     cfg,
		sched:   sched,
		up:      up,
		down:    down,
		store:   make(map[key]*entry),
		evicted: make(map[key]struct{}),
		cums:    make(map[byte]uint64),
	}
	r.ack = sched.NewTimer(r.onAck)
	r.poll = sched.NewTimer(r.onPoll)
	node.SetHandler(r.handle)
	r.bindMetrics()
	return r, nil
}

// StoredBytes returns the custody store's current size in wire bytes.
func (r *Relay) StoredBytes() int { return r.stored }

// StoredADUs returns the number of ADUs (complete or partial) in
// custody.
func (r *Relay) StoredADUs() int { return len(r.store) }

func (r *Relay) bindMetrics() {
	reg := r.cfg.Metrics
	if reg == nil {
		return
	}
	lb := "relay=" + r.cfg.Name
	metrics.BindStats(reg, "relay", &r.Stats, lb)
	reg.GaugeFunc("relay.stored_bytes", func() int64 { return int64(r.stored) }, lb)
	reg.GaugeFunc("relay.stored_adus", func() int64 { return int64(len(r.store)) }, lb)
	// The configured bound next to the live occupancy: the telemetry
	// plane's near-capacity detector reads the pair label-for-label.
	reg.GaugeFunc("relay.storage_limit_bytes", func() int64 { return int64(r.cfg.StorageLimit) }, lb)
}

// handle is the node handler: classify by wire type, forward, and run
// the custody machinery. Direction is implied by type — DATA and
// heartbeats only ever flow sender-to-receiver, control/feedback/
// custody-acks only receiver-to-sender.
func (r *Relay) handle(p *netsim.Packet) {
	switch wire.TypeOf(p.Payload) {
	case wire.TypeData: // store custody, forward downstream
		r.handleData(p)
	case wire.TypeHB: // forward downstream
		r.Stats.HBForwarded++
		_ = r.down.SendRef(p.Retain())
	case wire.TypeCtrl: // from downstream: intercept NACKs, forward rest
		r.handleControl(p)
	case wire.TypeFB: // forward upstream
		r.Stats.FBForwarded++
		_ = r.up.SendRef(p.Retain())
	case wire.TypeCA: // from a further downstream custodian
		r.handleCustodyAck(p)
	default:
		// Unknown or corrupt beyond recognition: pass it downstream
		// opaquely; endpoint checksums are the arbiter.
		r.Stats.BadFrames++
		_ = r.down.SendRef(p.Retain())
	}
}

// handleData forwards a fragment downstream and takes it into custody.
func (r *Relay) handleData(p *netsim.Packet) {
	r.Stats.Fragments++
	r.Stats.FwdFragments++
	_ = r.down.SendRef(p.Retain())

	h, err := wire.ParseHeader(p.Payload)
	if err != nil {
		// Damaged in transit: forwarded above, but custody of bytes the
		// receiver will reject is custody of nothing.
		r.Stats.BadFrames++
		return
	}
	if h.Flags&wire.FlagParity != 0 {
		// FEC parity recreates lost *fragments*; custody recovers whole
		// ADUs from storage. Storing parity would double-count bytes
		// toward completeness.
		return
	}
	k := key{h.Stream, h.Name}
	if h.Name < r.cums[h.Stream] {
		return // settled end to end; late duplicate
	}
	if _, gone := r.evicted[k]; gone {
		return // previously evicted or claimed downstream; do not flap
	}
	// Custody holds only fragments that tile their ADU; the receiver
	// decides on the rest.
	e := r.store[k]
	switch {
	case e == nil:
		if !r.admit(k, len(p.Payload)) {
			return
		}
		e = &entry{totalLen: h.TotalLen, critical: h.Flags&wire.FlagCritical != 0}
		r.store[k] = e
		r.order = append(r.order, k)
	case h.TotalLen != e.totalLen:
		r.Stats.BadFrames++
		return
	case e.overlaps(h.FragOff, h.FragLen):
		r.Stats.DupFrags++
		return
	case !r.admit(k, len(p.Payload)):
		return
	}
	e.frags = append(e.frags, p.Retain())
	e.spans = append(e.spans, span{h.FragOff, h.FragLen})
	e.gotBytes += h.FragLen
	e.wire += len(p.Payload)
	r.stored += len(p.Payload)
	if int64(r.stored) > r.Stats.MaxStoredBytes {
		r.Stats.MaxStoredBytes = int64(r.stored)
	}
	r.Stats.StoredFrags++
	if !r.poll.Active() {
		r.wasDown = r.down.Down()
		r.poll.Reset(r.cfg.HealPoll)
	}
	if !e.complete && e.gotBytes >= e.totalLen {
		e.complete = true
		r.Stats.ADUsComplete++
		r.pending = append(r.pending, k)
		if !r.ack.Active() {
			r.ack.Reset(r.cfg.CustodyTimer)
		}
	}
}

// admit makes room for n more bytes of custody for k (which may not be
// in the store yet): oldest non-Critical ADUs are evicted until the
// fragment fits; if nothing evictable remains, the fragment is shed
// and false returned. Critical custody is never evicted — the
// application said these must survive, and the relay already promised
// upstream.
func (r *Relay) admit(k key, n int) bool {
	if r.stored+n <= r.cfg.StorageLimit {
		return true
	}
	for _, ok := range r.order {
		if r.stored+n <= r.cfg.StorageLimit {
			break
		}
		if ok == k {
			continue
		}
		oe := r.store[ok]
		if oe == nil || oe.critical {
			continue
		}
		r.evict(ok, oe)
	}
	if r.stored+n > r.cfg.StorageLimit {
		r.Stats.ShedFrags++
		// The ADU can never complete here; forget its partial state so
		// it does not hold storage, and remember not to retry.
		if cur := r.store[k]; cur != nil {
			r.evict(k, cur)
		} else {
			r.evicted[k] = struct{}{}
		}
		return false
	}
	return true
}

// evict removes one ADU from custody.
func (r *Relay) evict(k key, e *entry) {
	r.stored -= e.wire
	r.Stats.Evicted++
	r.Stats.EvictedBytes += int64(e.wire)
	e.release()
	delete(r.store, k)
	r.evicted[k] = struct{}{}
}

// drop removes one ADU from custody because it is settled (cleared by
// the downstream frontier or claimed by a downstream custodian).
func (r *Relay) drop(k key, e *entry) {
	r.stored -= e.wire
	r.Stats.Cleared++
	e.release()
	delete(r.store, k)
}

// compactOrder prunes dead keys from the insertion-order slice once
// they dominate it.
func (r *Relay) compactOrder() {
	if len(r.order) < 2*len(r.store)+16 {
		return
	}
	live := r.order[:0]
	for _, k := range r.order {
		if _, ok := r.store[k]; ok {
			live = append(live, k)
		}
	}
	r.order = live
}

// onAck emits the batched custody acknowledgments upstream: one or
// more CA frames covering every completion since the last batch, plus
// the settled frontier.
func (r *Relay) onAck() {
	if len(r.pending) == 0 {
		return
	}
	// Group by stream (almost always one), preserving completion order.
	for len(r.pending) > 0 {
		stream := r.pending[0].stream
		var names []uint64
		rest := r.pending[:0]
		for _, k := range r.pending {
			if k.stream != stream || len(names) >= wire.MaxNames {
				rest = append(rest, k)
				continue
			}
			e := r.store[k]
			if e == nil || !e.complete || e.acked {
				continue // evicted or cleared while pending
			}
			e.acked = true
			names = append(names, k.name)
		}
		r.pending = append([]key(nil), rest...)
		if len(names) == 0 {
			continue
		}
		ca := wire.CustodyAck{Stream: stream, Relay: r.cfg.RelayID, Cum: r.cums[stream], Names: names}
		r.Stats.CustodyAckTX++
		r.Stats.ADUsAcked += int64(len(names))
		_ = r.up.Send(wire.EncodeCustody(&ca))
	}
}

// handleControl intercepts a receiver control message: NACKs for ADUs
// complete in custody are answered from the store; the rest travel
// upstream with the (always-forwarded) cumulative frontier.
func (r *Relay) handleControl(p *netsim.Packet) {
	ci, err := wire.ParseControl(p.Payload)
	if err != nil {
		// Corrupt control: forward opaquely, the endpoint drops it.
		r.Stats.BadFrames++
		_ = r.up.SendRef(p.Retain())
		return
	}
	r.clearBelow(ci.Stream, ci.Cum)
	r.Stats.NacksSeen += int64(len(ci.Nacks))
	var fwd []uint64
	for _, name := range ci.Nacks {
		k := key{ci.Stream, name}
		if e := r.store[k]; e != nil && e.complete {
			r.Stats.NacksAnswered++
			r.resendEntry(k, e)
			continue
		}
		fwd = append(fwd, name)
	}
	r.Stats.NacksForwarded += int64(len(fwd))
	r.Stats.CtrlForwarded++
	if len(fwd) == len(ci.Nacks) {
		// Nothing answered: the original frame forwards unchanged,
		// zero-copy.
		_ = r.up.SendRef(p.Retain())
		return
	}
	ci.Nacks = fwd
	_ = r.up.Send(wire.EncodeControl(nil, &ci))
}

// clearBelow settles custody below the receiver's cumulative frontier.
func (r *Relay) clearBelow(stream byte, cum uint64) {
	if cum <= r.cums[stream] {
		return
	}
	r.cums[stream] = cum
	for _, k := range r.order {
		if k.stream != stream || k.name >= cum {
			continue
		}
		if e := r.store[k]; e != nil {
			r.drop(k, e)
		}
	}
	for k := range r.evicted {
		if k.stream == stream && k.name < cum {
			delete(r.evicted, k)
		}
	}
	r.compactOrder()
}

// handleCustodyAck consumes a custody ack from a relay further
// downstream: those ADUs are its responsibility now. The frame is not
// forwarded — custody chains hop by hop, and this relay's own acks
// (already sent when the ADUs completed here) cover the upstream leg.
func (r *Relay) handleCustodyAck(p *netsim.Packet) {
	ca, err := wire.ParseCustody(p.Payload)
	if err != nil {
		r.Stats.BadFrames++
		_ = r.up.SendRef(p.Retain())
		return
	}
	r.Stats.CAConsumed++
	r.clearBelow(ca.Stream, ca.Cum)
	for _, name := range ca.Names {
		k := key{ca.Stream, name}
		if e := r.store[k]; e != nil {
			r.drop(k, e)
			// A later duplicate from upstream must not re-open custody
			// the downstream relay now holds.
			r.evicted[k] = struct{}{}
		}
	}
	r.compactOrder()
}

// resendEntry re-emits one ADU's stored fragments downstream.
func (r *Relay) resendEntry(k key, e *entry) {
	r.Stats.RetxADUs++
	r.Stats.RetxFrags += int64(len(e.frags))
	for _, f := range e.frags {
		_ = r.down.SendRef(f.Retain())
	}
}

// onPoll watches the downstream link while custody is held: a
// down-to-up transition re-originates the whole store immediately (the
// heal is the moment the dark window's parked data can move), and the
// RetryInterval backstop re-originates it periodically in case the
// heal burst itself was lost. The timer self-stops when custody
// drains, keeping an idle relay quiescent.
func (r *Relay) onPoll() {
	down := r.down.Down()
	now := r.sched.Now()
	if r.lastRetx == 0 {
		r.lastRetx = now // first poll since custody began: start the retry clock
	}
	if r.wasDown && !down {
		r.Stats.Heals++
		r.resendAll(now)
	} else if !down && r.cfg.RetryInterval > 0 &&
		now.Sub(r.lastRetx) >= r.cfg.RetryInterval {
		r.resendAll(now)
	}
	r.wasDown = down
	if len(r.store) > 0 || len(r.pending) > 0 {
		r.poll.Reset(r.cfg.HealPoll)
	}
}

// resendAll re-originates every ADU still in custody, complete or
// partial (a partial's missing fragments are the upstream hop's
// problem; what is here should not wait on it), oldest first.
func (r *Relay) resendAll(now sim.Time) {
	r.lastRetx = now
	for _, k := range r.order {
		if e := r.store[k]; e != nil {
			r.resendEntry(k, e)
		}
	}
}
