// Package netsim is the packet-level network substrate: a discrete-event
// simulation of nodes joined by point-to-point links with configurable
// rate, propagation delay, queueing, and impairments (random and bursty
// loss, reordering, duplication, bit errors).
//
// The paper's experiments assume networks that lose, reorder and
// duplicate data (§3, "Detecting network transmission problems"); this
// package provides those failure modes deterministically from a seed.
//
// netsim is deliberately dumb about contents: payloads are opaque bytes,
// and all framing, demultiplexing and recovery live in the layers above
// (otp, alf). A Node delivers every arriving packet to its single
// handler. Routers are ordinary nodes whose handler forwards on another
// link.
package netsim

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/buf"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/tracing"
)

// NodeID identifies a node within one Network.
type NodeID uint16

// Packet is a datagram in flight. Payload views a pooled refcounted
// buffer (internal/buf) that the network recycles after delivery: it is
// valid only for the duration of the handler call, and handlers must
// not mutate it or retain the slice (or the *Packet) past their return
// — copy what must outlive the call. Sends via Send copy the caller's
// slice once into the pool; SendRef hands a buffer over with no copy at
// all, and routers forward by reference, so a multi-hop path touches
// the payload bytes zero times.
type Packet struct {
	From, To NodeID
	Payload  []byte
	// Corrupted marks packets damaged in transit when the link is
	// configured to deliver (rather than drop) bit errors. Checksums in
	// upper layers are expected to catch these; the flag exists so tests
	// can distinguish "checksum caught it" from "checksum missed it".
	Corrupted bool

	ref   *buf.Ref // counted payload buffer; nil only transiently
	link  *Link    // owning link while queued/in flight
	delay sim.Duration
	due   sim.Time // departure time while in the link's queue, delivery time while in its transit FIFO
	shed  bool     // dropped by a QueueLimit shrink while queued; onDepart discards it at the head
}

// Retain returns an additional counted reference to the packet's
// pooled payload buffer. The loan rules still apply to the *Packet and
// its Payload slice, but the returned ref (and its Bytes) outlives the
// handler call — this is how a store-and-forward node (internal/relay)
// takes custody of a packet without copying it.
func (p *Packet) Retain() *buf.Ref { return p.ref.Retain() }

// Handler consumes packets arriving at a node. Handlers run inside
// scheduler callbacks: they must not block. The packet and its payload
// are loaned for the duration of the call only (see Packet).
type Handler func(*Packet)

// ErrTooBig is returned by Send for payloads over the link MTU.
var ErrTooBig = errors.New("netsim: payload exceeds link MTU")

// Network owns the nodes and links of one simulated topology, all driven
// by a single scheduler and RNG.
type Network struct {
	Sched   *sim.Scheduler
	Rand    *sim.Rand
	nodes   []*Node
	links   []*Link
	metrics *metrics.Registry
	tracer  *tracing.Tracer
	pool    *buf.Pool
	freePkt []*Packet // delivered Packet structs awaiting reuse
}

// SetPool replaces the buffer pool backing Send's single copy. The
// default is buf.Default, shared with the transport layers so a slab
// released on delivery is the next one a sender gets. Tests use a
// private pool to assert recycling.
func (n *Network) SetPool(p *buf.Pool) { n.pool = p }

// getPacket returns a zeroed Packet, reusing a delivered one.
func (n *Network) getPacket() *Packet {
	if ln := len(n.freePkt); ln > 0 {
		p := n.freePkt[ln-1]
		n.freePkt[ln-1] = nil
		n.freePkt = n.freePkt[:ln-1]
		return p
	}
	return &Packet{}
}

// putPacket releases the packet's payload reference and recycles the
// struct.
func (n *Network) putPacket(p *Packet) {
	if p.ref != nil {
		p.ref.Release()
	}
	*p = Packet{}
	n.freePkt = append(n.freePkt, p)
}

// SetTracer binds the topology to the span recorder: every link
// records queueing, delivery, and drop events (with drop causes) for
// each packet, identified by sniffing the opaque payload. Nil
// disables recording (the default; a nil tracer costs one branch per
// packet event).
func (n *Network) SetTracer(t *tracing.Tracer) { n.tracer = t }

// SetMetrics binds the whole topology to the unified registry: every
// existing and future link registers its counters (views over
// Link.Stats: traffic, drops by cause, delivered bytes) and a
// queue-depth gauge, and every node its undelivered-packet counters.
// Call with nil to stop registering new elements (already-registered
// series remain).
func (n *Network) SetMetrics(r *metrics.Registry) {
	n.metrics = r
	if r == nil {
		return
	}
	for _, nd := range n.nodes {
		nd.bindMetrics(r)
	}
	for i, l := range n.links {
		l.bindMetrics(r, i)
	}
}

// New creates an empty network on sched with a RNG seeded by seed.
func New(sched *sim.Scheduler, seed int64) *Network {
	return &Network{Sched: sched, Rand: sim.NewRand(seed), pool: buf.Default}
}

// Links returns every link in creation order. The slice is shared;
// callers must not modify it.
func (n *Network) Links() []*Link { return n.links }

// LinksBetween returns the links whose endpoints straddle the two node
// groups, in either direction — the cut set a partition must sever to
// separate groups a and b.
func (n *Network) LinksBetween(a, b []*Node) []*Link {
	var cut []*Link
	for _, l := range n.links {
		if slices.Contains(a, l.from) && slices.Contains(b, l.to) || slices.Contains(b, l.from) && slices.Contains(a, l.to) {
			cut = append(cut, l)
		}
	}
	return cut
}

// NewNode adds a node. The name is for diagnostics only.
func (n *Network) NewNode(name string) *Node {
	node := &Node{net: n, id: NodeID(len(n.nodes)), name: name}
	n.nodes = append(n.nodes, node)
	if n.metrics != nil {
		node.bindMetrics(n.metrics)
	}
	return node
}

// Node is an endpoint or router attachment point.
type Node struct {
	net     *Network
	id      NodeID
	name    string
	handler Handler
	Stats   NodeStats
}

// NodeStats counts the packets a node could not hand on.
type NodeStats struct {
	Undelivered      int64 `metric:"undelivered"` // packets that arrived with no handler set
	UndeliveredBytes int64 `metric:"undelivered_bytes"`
}

// bindMetrics registers the node's series with the unified registry.
func (nd *Node) bindMetrics(r *metrics.Registry) {
	metrics.BindStats(r, "netsim.node", &nd.Stats, fmt.Sprintf("node=%d:%s", nd.id, nd.name))
}

// Name returns the diagnostic name.
func (nd *Node) Name() string { return nd.name }

// SetHandler installs the function that receives arriving packets.
func (nd *Node) SetHandler(h Handler) { nd.handler = h }

func (nd *Node) deliver(p *Packet) {
	if nd.handler == nil {
		nd.Stats.Undelivered++
		nd.Stats.UndeliveredBytes += int64(len(p.Payload))
		return
	}
	nd.handler(p)
}

// DownPolicy selects what happens to packets a link is holding (queued
// for serialization) or receiving while the link is administratively
// down (Link.SetDown). Fault-injection scenarios (internal/faults) flip
// links down and up at scheduled virtual times.
type DownPolicy uint8

const (
	// DropOnDown discards packets that reach a down link: new sends are
	// dropped on entry and already-queued packets are dropped when their
	// serialization completes. All are counted as LinkStats.DownDrops.
	// This models an interface whose driver flushes its ring on carrier
	// loss — the default, and the conservative assumption for recovery
	// logic above.
	DropOnDown DownPolicy = iota
	// HoldOnDown parks packets while the link is down — queued packets
	// migrate to a hold buffer, new sends join it (still bounded by
	// QueueLimit) — and re-serializes them in order when the link comes
	// back up. This models a driver that keeps its queue across a short
	// carrier flap.
	HoldOnDown
)

// Gilbert configures a two-state Gilbert–Elliott burst-loss process.
// The link starts in the good state; transition probabilities are
// evaluated per packet.
type Gilbert struct {
	PGoodToBad float64 // P(enter bad state), per packet while good
	PBadToGood float64 // P(leave bad state), per packet while bad
	LossGood   float64 // loss probability in the good state
	LossBad    float64 // loss probability in the bad state
}

// LinkConfig describes one unidirectional link.
type LinkConfig struct {
	// RateBps is the serialization rate in bits per second.
	// Zero means infinitely fast (no serialization delay).
	RateBps float64
	// Delay is the propagation delay.
	Delay sim.Duration
	// QueueLimit bounds the number of packets queued awaiting
	// serialization (drop-tail). Zero means unlimited.
	QueueLimit int
	// MTU bounds payload size in bytes. Zero means unlimited.
	MTU int

	// LossProb drops each packet independently with this probability.
	LossProb float64
	// Burst, if non-nil, adds Gilbert–Elliott bursty loss on top of
	// LossProb.
	Burst *Gilbert
	// DupProb delivers an extra copy of the packet with this probability.
	DupProb float64
	// ReorderProb holds a packet back by an extra random delay in
	// (0, ReorderDelay], causing it to arrive after its successors.
	ReorderProb  float64
	ReorderDelay sim.Duration
	// BitErrorRate is the independent per-bit corruption probability.
	// Corrupted packets are delivered with flipped bits and
	// Packet.Corrupted set; upper-layer checksums must catch them.
	BitErrorRate float64
	// OnDown selects the fate of queued packets while the link is
	// administratively down (default DropOnDown).
	OnDown DownPolicy
}

// LinkStats counts link events for assertions and experiment reports.
type LinkStats struct {
	Sent           int64 `metric:"sent"` // packets accepted by Send
	SentBytes      int64 `metric:"sent_bytes"`
	Delivered      int64 `metric:"delivered"` // packets handed to the destination node
	DeliveredBytes int64 `metric:"delivered_bytes"`
	QueueDrops     int64 `metric:"queue_drops"`  // drop-tail losses (QueueLimit full at send time)
	ShrinkDrops    int64 `metric:"shrink_drops"` // queued packets dropped by a QueueLimit shrink
	LineLosses     int64 `metric:"line_losses"`  // impairment losses (random + burst)
	DownDrops      int64 `metric:"down_drops"`   // packets dropped because the link was down
	HeldPackets    int64 `metric:"held_packets"` // packets parked by HoldOnDown (cumulative)
	Dups           int64 `metric:"dups"`
	Reordered      int64 `metric:"reordered"`
	Corrupted      int64 `metric:"corrupted"`
	Rejected       int64 `metric:"rejected"`            // oversize sends
	MaxQueue       int64 `metric:"queue_max,gauge,max"` // high-water queue depth (packets awaiting serialization)
}

// pktFIFO is a queue of packets in a slice with a head index. pop
// compacts in place once the dead prefix is at least as long as the
// live window, so push and pop are O(1) amortized at any depth and a
// queue in steady state reuses its backing array.
type pktFIFO struct {
	buf  []*Packet
	head int
}

func (f *pktFIFO) len() int { return len(f.buf) - f.head }

// live returns the queued packets, oldest first. The slice aliases the
// queue and is invalidated by the next push or pop.
func (f *pktFIFO) live() []*Packet { return f.buf[f.head:] }

func (f *pktFIFO) push(p *Packet) { f.buf = append(f.buf, p) }

// pop removes and returns the oldest packet; the queue must not be
// empty.
func (f *pktFIFO) pop() *Packet {
	p := f.buf[f.head]
	f.buf[f.head] = nil
	f.head++
	if f.head*2 >= len(f.buf) {
		n := copy(f.buf, f.buf[f.head:])
		clear(f.buf[n:])
		f.buf = f.buf[:n]
		f.head = 0
	}
	return p
}

// Link is a unidirectional point-to-point pipe.
type Link struct {
	net   *Network
	from  *Node
	to    *Node
	cfg   LinkConfig
	label string // tracer track name: net/<from>-><to>/<idx>

	busyUntil sim.Time
	queued    int
	q         pktFIFO   // committed to serialization, in departure order (queued plus shed)
	depTimer  sim.Timer // armed for the departure of q's head (onDepart)
	inBad     bool      // Gilbert–Elliott state
	down      bool
	held      []*Packet // parked by HoldOnDown, FIFO

	// In-flight pipe: packets past serialization, awaiting delivery.
	// Constant-delay deliveries fire in depart order, so the pipe is a
	// FIFO serviced by one timer per link and the scheduler heap stays
	// O(links) no matter how deep the pipe is — a gigabyte-BDP
	// interplanetary link holds hundreds of thousands of packets in
	// flight, and a per-packet heap entry for each would dominate the
	// simulation. Non-monotone deliveries (reorder extra delay, a
	// config change that shortened Delay mid-flight) fall back to
	// per-packet events.
	transit  pktFIFO
	lastDue  sim.Time
	delTimer *sim.Timer

	Stats LinkStats
}

// NewLink creates a unidirectional link from a to b.
func (n *Network) NewLink(from, to *Node, cfg LinkConfig) *Link {
	if from.net != n || to.net != n {
		panic("netsim: nodes belong to a different network")
	}
	l := &Link{net: n, from: from, to: to, cfg: cfg,
		label: fmt.Sprintf("net/%s->%s/%d", from.name, to.name, len(n.links))}
	n.Sched.InitTimer(&l.depTimer, onDepart, l)
	l.delTimer = n.Sched.NewTimer(l.onDeliver)
	n.links = append(n.links, l)
	if n.metrics != nil {
		l.bindMetrics(n.metrics, len(n.links)-1)
	}
	return l
}

// bindMetrics registers the link's series. The label carries the
// endpoint names plus the link's creation index, which keeps parallel
// links between the same pair distinct.
func (l *Link) bindMetrics(r *metrics.Registry, idx int) {
	lb := fmt.Sprintf("link=%s->%s/%d", l.from.name, l.to.name, idx)
	metrics.BindStats(r, "netsim.link", &l.Stats, lb)
	r.GaugeFunc("netsim.link.queue_depth", func() int64 { return int64(l.queued) }, lb)
	// The configured bound next to the live depth: the telemetry
	// plane's queue-saturation detector reads the pair label-for-label.
	r.GaugeFunc("netsim.link.queue_limit", func() int64 { return int64(l.cfg.QueueLimit) }, lb)
	r.GaugeFunc("netsim.link.held_depth", func() int64 { return int64(len(l.held)) }, lb)
	r.GaugeFunc("netsim.link.down", func() int64 {
		if l.down {
			return 1
		}
		return 0
	}, lb)
}

// NewDuplex creates a pair of links with the same configuration,
// returning (a→b, b→a).
func (n *Network) NewDuplex(a, b *Node, cfg LinkConfig) (ab, ba *Link) {
	return n.NewLink(a, b, cfg), n.NewLink(b, a, cfg)
}

// From returns the sending node.
func (l *Link) From() *Node { return l.from }

// To returns the receiving node.
func (l *Link) To() *Node { return l.to }

// Config returns the link configuration.
func (l *Link) Config() LinkConfig { return l.cfg }

// Label returns the link's stable diagnostic name
// ("net/<from>-><to>/<idx>"), the track name under which the tracer
// records this link's events.
func (l *Link) Label() string { return l.label }

// UpdateConfig replaces the link configuration at runtime. Packets
// already serializing keep their committed departure times; new sends
// see the new rate, delay, and impairments immediately. The
// Gilbert–Elliott state machine carries over. Fault scenarios use this
// to degrade a live link (raise loss, stretch delay) and later restore
// the saved config.
//
// Shrinking QueueLimit below the current backlog drops the excess —
// newest first, held packets before committed ones — counted as
// LinkStats.ShrinkDrops with drop cause "shrink"; it never panics and
// never delivers a packet the new limit disowns.
func (l *Link) UpdateConfig(cfg LinkConfig) {
	l.cfg = cfg
	l.shrinkToLimit()
}

// shrinkToLimit enforces a lowered QueueLimit over the live backlog.
// Held packets (not yet committed to serialization) are freed outright.
// Committed ones keep their places in the departure queue, which later
// packets' times were set behind: they are marked shed and dropped by
// onDepart at its head, their accounting (queued, stats, trace) settled
// here, at once. The serialization time they had claimed is not
// reclaimed — the link behaves as if the drop happened at the
// transmitter's output, after the bytes crossed the wire-side queue.
func (l *Link) shrinkToLimit() {
	limit := l.cfg.QueueLimit
	if limit <= 0 {
		return
	}
	for l.queued+len(l.held) > limit && len(l.held) > 0 {
		n := len(l.held) - 1
		pkt := l.held[n]
		l.held[n] = nil
		l.held = l.held[:n]
		l.Stats.ShrinkDrops++
		l.net.tracer.PacketDropped(l.label, "shrink", pkt.Payload)
		l.net.putPacket(pkt)
	}
	q := l.q.live()
	for i := len(q) - 1; i >= 0 && l.queued+len(l.held) > limit; i-- {
		pkt := q[i]
		if pkt.shed {
			continue
		}
		pkt.shed = true
		l.queued--
		l.Stats.ShrinkDrops++
		l.net.tracer.PacketDropped(l.label, "shrink", pkt.Payload)
	}
}

// Down reports whether the link is administratively down.
func (l *Link) Down() bool { return l.down }

// HeldLen returns the number of packets parked by HoldOnDown.
func (l *Link) HeldLen() int { return len(l.held) }

// SetDown changes the link's administrative state. Taking a link down
// applies the configured DownPolicy to traffic: with DropOnDown (the
// default) new sends and already-queued packets are discarded and
// counted as DownDrops; with HoldOnDown they are parked and
// re-serialized, in order, when the link comes back up. Bringing an
// already-up link up (or down link down) is a no-op.
func (l *Link) SetDown(down bool) {
	if l.down == down {
		return
	}
	l.down = down
	if down {
		return
	}
	// Back up: whatever HoldOnDown parked re-enters serialization now,
	// in arrival order.
	held := l.held
	l.held = nil
	for _, pkt := range held {
		l.enqueue(pkt)
	}
}

// serialization returns the transmission time of n payload bytes.
func (l *Link) serialization(n int) sim.Duration {
	if l.cfg.RateBps <= 0 {
		return 0
	}
	return sim.Duration(float64(n*8) / l.cfg.RateBps * 1e9)
}

// QueueLen returns the number of packets waiting for serialization.
func (l *Link) QueueLen() int { return l.queued }

// Send enqueues payload for transmission. The payload is copied once
// into a pooled buffer, so the caller may immediately reuse its slice.
// It returns ErrTooBig for oversize payloads; queue overflow is not an
// error (the packet is silently dropped and counted), matching real
// datagram semantics.
func (l *Link) Send(payload []byte) error {
	return l.send(payload, l.to.id)
}

// SendRef enqueues a pooled buffer with no copy. The caller's
// reference count transfers to the link — including on drop and error
// returns — so a caller that needs the buffer afterwards must Retain
// before sending. The bytes must not be mutated once sent (the buffer
// may be shared; see Packet).
func (l *Link) SendRef(ref *buf.Ref) error {
	return l.sendRef(ref, l.to.id)
}

// send is the copying transmission path: one copy, caller's slice to
// pooled buffer. finalTo is the ultimate destination recorded in the
// packet, which routers use to select the next hop (it may differ from
// l.to when the packet is mid-route).
func (l *Link) send(payload []byte, finalTo NodeID) error {
	if l.cfg.MTU > 0 && len(payload) > l.cfg.MTU {
		l.Stats.Rejected++
		return fmt.Errorf("%w: %d > %d", ErrTooBig, len(payload), l.cfg.MTU)
	}
	ref := l.net.pool.Get(len(payload))
	copy(ref.Bytes(), payload)
	return l.sendRef(ref, finalTo)
}

// sendRef is the common transmission path; it owns ref's count.
func (l *Link) sendRef(ref *buf.Ref, finalTo NodeID) error {
	payload := ref.Bytes()
	if l.cfg.MTU > 0 && len(payload) > l.cfg.MTU {
		l.Stats.Rejected++
		ref.Release()
		return fmt.Errorf("%w: %d > %d", ErrTooBig, len(payload), l.cfg.MTU)
	}
	if l.down && l.cfg.OnDown == DropOnDown {
		l.Stats.DownDrops++
		l.net.tracer.PacketDropped(l.label, "down", payload)
		ref.Release()
		return nil
	}
	if l.cfg.QueueLimit > 0 && l.queued+len(l.held) >= l.cfg.QueueLimit {
		l.Stats.QueueDrops++
		l.net.tracer.PacketDropped(l.label, "queue", payload)
		ref.Release()
		return nil
	}
	l.Stats.Sent++
	l.Stats.SentBytes += int64(len(payload))
	pkt := l.net.getPacket()
	pkt.From, pkt.To, pkt.Payload, pkt.ref, pkt.link = l.from.id, finalTo, payload, ref, l
	if l.down {
		l.hold(pkt)
		return nil
	}
	l.enqueue(pkt)
	return nil
}

// onDepart drains the head of a link's departure queue: every packet
// whose serialization has ended, in queue order, then re-arms for the
// next. Departure times never decrease along the queue, so one timer
// per link serves it, as delTimer serves the transit FIFO.
func onDepart(arg any) {
	l := arg.(*Link)
	now := l.net.Sched.Now()
	for l.q.len() > 0 && l.q.live()[0].due <= now {
		if pkt := l.q.pop(); pkt.shed {
			l.net.putPacket(pkt) // its accounting and drop event settled at shrink time
		} else {
			l.queued--
			l.depart(pkt)
		}
	}
	if l.q.len() > 0 {
		l.depTimer.Reset(l.q.live()[0].due.Sub(now))
	}
}

// enqueue commits pkt to serialization: it departs when the link has
// transmitted every byte ahead of it.
func (l *Link) enqueue(pkt *Packet) {
	l.queued++
	if int64(l.queued) > l.Stats.MaxQueue {
		// High-water mark: the scaling experiments report it per shard
		// trunk to show backlog stays bounded as flow counts grow.
		l.Stats.MaxQueue = int64(l.queued)
	}
	now := l.net.Sched.Now()
	start := max(l.busyUntil, now)
	txEnd := start.Add(l.serialization(len(pkt.Payload)))
	l.net.tracer.PacketQueued(l.label, pkt.Payload, start.Sub(now), txEnd.Sub(start))
	l.busyUntil = txEnd
	pkt.link, pkt.due = l, txEnd
	l.q.push(pkt)
	if !l.depTimer.Active() {
		l.depTimer.Reset(txEnd.Sub(now))
	}
}

// hold parks pkt until the link comes back up (HoldOnDown).
func (l *Link) hold(pkt *Packet) {
	l.Stats.HeldPackets++
	l.held = append(l.held, pkt)
}

// depart applies impairments at the moment the packet finishes
// serialization and schedules delivery.
func (l *Link) depart(pkt *Packet) {
	if l.down {
		// The link went down while this packet was serializing.
		if l.cfg.OnDown == HoldOnDown {
			l.hold(pkt)
		} else {
			l.Stats.DownDrops++
			l.net.tracer.PacketDropped(l.label, "down", pkt.Payload)
			l.net.putPacket(pkt)
		}
		return
	}
	rnd := l.net.Rand

	if l.lost(rnd) {
		l.Stats.LineLosses++
		l.net.tracer.PacketDropped(l.label, "line", pkt.Payload)
		l.net.putPacket(pkt)
		return
	}

	if l.cfg.BitErrorRate > 0 {
		bits := float64(len(pkt.Payload) * 8)
		pCorrupt := 1 - math.Pow(1-l.cfg.BitErrorRate, bits)
		if rnd.Bernoulli(pCorrupt) {
			l.corrupt(pkt, rnd)
		}
	}

	delay := l.cfg.Delay
	if l.cfg.ReorderProb > 0 && rnd.Bernoulli(l.cfg.ReorderProb) {
		extra := sim.Duration(rnd.Int63() % int64(max(l.cfg.ReorderDelay, 1)))
		delay += extra
		l.Stats.Reordered++
	}

	l.schedDeliver(pkt, delay)

	if l.cfg.DupProb > 0 && rnd.Bernoulli(l.cfg.DupProb) {
		// The duplicate shares the original's buffer by reference; both
		// deliveries read it immutably. (pkt's own delivery has not fired
		// yet — the scheduler is single-threaded — so the retain is safe.)
		dup := l.net.getPacket()
		dup.From, dup.To, dup.Corrupted = pkt.From, pkt.To, pkt.Corrupted
		dup.ref = pkt.ref.Retain()
		dup.Payload, dup.link = pkt.Payload, l
		l.Stats.Dups++
		l.schedDeliver(dup, l.cfg.Delay)
	}
}

// deliverCB hands a packet to its destination node, then recycles it.
// Static so schedDeliver's out-of-order deliveries take a pooled event.
func deliverCB(arg any) {
	pkt := arg.(*Packet)
	l := pkt.link
	l.Stats.Delivered++
	l.Stats.DeliveredBytes += int64(len(pkt.Payload))
	l.net.tracer.PacketDelivered(l.label, pkt.Payload, pkt.delay)
	l.to.deliver(pkt)
	l.net.putPacket(pkt)
}

func (l *Link) schedDeliver(pkt *Packet, delay sim.Duration) {
	pkt.link, pkt.delay = l, delay
	due := l.net.Sched.Now().Add(delay)
	if l.transit.len() > 0 && due < l.lastDue {
		// Out of order with the pipe (reorder extra delay, or the
		// configured Delay shrank under in-flight traffic): a
		// per-packet event preserves its earlier arrival.
		l.net.Sched.AfterCall(delay, deliverCB, pkt)
		return
	}
	pkt.due = due
	l.lastDue = due
	l.transit.push(pkt)
	if !l.delTimer.Active() {
		l.delTimer.Reset(delay)
	}
}

// onDeliver drains the head of the in-flight FIFO: every packet whose
// delivery time has arrived, in depart order, then re-arms for the
// next. Handlers may send on this same link during the loop; the
// bounds are re-read every iteration so their packets just extend the
// pipe.
func (l *Link) onDeliver() {
	now := l.net.Sched.Now()
	for l.transit.len() > 0 && l.transit.live()[0].due <= now {
		deliverCB(l.transit.pop())
	}
	if l.transit.len() > 0 {
		l.delTimer.Reset(l.transit.live()[0].due.Sub(now))
	}
}

// lost applies the random and burst loss processes.
func (l *Link) lost(rnd *sim.Rand) bool {
	if rnd.Bernoulli(l.cfg.LossProb) {
		return true
	}
	if g := l.cfg.Burst; g != nil {
		if l.inBad {
			if rnd.Bernoulli(g.PBadToGood) {
				l.inBad = false
			}
		} else {
			if rnd.Bernoulli(g.PGoodToBad) {
				l.inBad = true
			}
		}
		p := g.LossGood
		if l.inBad {
			p = g.LossBad
		}
		return rnd.Bernoulli(p)
	}
	return false
}

// corrupt flips one to three bits of the payload. A shared buffer
// (sender retention for retransmit, a duplicate in flight, a relay's
// custody) is cloned first — copy-on-write — so the damage stays
// confined to this packet.
func (l *Link) corrupt(pkt *Packet, rnd *sim.Rand) {
	if len(pkt.Payload) == 0 {
		return
	}
	l.Stats.Corrupted++
	pkt.Corrupted = true
	if pkt.ref.Shared() {
		clone := pkt.ref.Clone()
		pkt.ref.Release()
		pkt.ref, pkt.Payload = clone, clone.Bytes()
	}
	nflips := 1 + rnd.Intn(3)
	for i := 0; i < nflips; i++ {
		pos := rnd.Intn(len(pkt.Payload))
		pkt.Payload[pos] ^= 1 << uint(rnd.Intn(8))
	}
}

// Router builds a node that forwards packets toward destinations over
// per-destination output links, modeling a shared bottleneck. Routes are
// matched on the packet's To field after re-addressing: the router
// forwards the payload unchanged onto the configured output link.
type Router struct {
	Node   *Node
	routes []*Link // by destination NodeID; nil where there is no route
	// Unrouted counts packets with no matching route.
	Unrouted int64
}

// NewRouter creates a router node.
func (n *Network) NewRouter(name string) *Router {
	r := &Router{}
	r.Node = n.NewNode(name)
	r.Node.SetHandler(r.forward)
	return r
}

// AddRoute forwards packets destined (after this hop) for dst onto out.
// The out link's To node need not be dst: multi-hop routes chain
// routers.
func (r *Router) AddRoute(dst *Node, out *Link) {
	if n := int(dst.id) + 1; n > len(r.routes) {
		r.routes = append(r.routes, make([]*Link, n-len(r.routes))...)
	}
	r.routes[dst.id] = out
}

func (r *Router) forward(p *Packet) {
	// The packet's To field carries the final destination (set by
	// SendVia or a previous router hop), so multi-hop routes chain
	// naturally. The packet's own reference moves to the next hop, which
	// consumes it on every path, so a multi-hop path copies zero times.
	var out *Link
	if int(p.To) < len(r.routes) {
		out = r.routes[p.To]
	}
	if out == nil {
		r.Unrouted++
		return
	}
	ref := p.ref
	p.ref = nil // nothing left for deliverCB's putPacket to release
	_ = out.sendRef(ref, p.To)
}

// SendVia sends payload to final destination dst through a first-hop
// link toward a router: the packet's To field carries the final
// destination so each router on the path can look up its route. The
// payload is copied once into a pooled buffer.
func SendVia(first *Link, dst *Node, payload []byte) error {
	return first.send(payload, dst.id)
}

// SendRefVia is SendVia for a pooled buffer: no copy, the caller's
// reference transfers to the network (see Link.SendRef).
func SendRefVia(first *Link, dst *Node, ref *buf.Ref) error {
	return first.sendRef(ref, dst.id)
}
