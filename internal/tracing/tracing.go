// Package tracing is the per-ADU lifecycle tracer: a low-overhead,
// nil-safe span recorder on the simulator's virtual clock that follows
// every Application Data Unit through its full life — submitted,
// framed, fragments on the wire, dropped or retransmitted, reassembled,
// delivered or lost — with causal links between events (a NACK to the
// retransmission it provoked, a fault window to the drops inside it, a
// loss to the head-of-line stall it opened on the ordered transport).
//
// Where internal/metrics answers "how much, in aggregate", tracing
// answers "where did *this* ADU's nanoseconds go". wire.Describe
// renders one packet as one line; this package records structured
// events and reconstructs timelines from them.
//
// # Cost when disabled
//
// Every recording method is safe on a nil *Tracer and returns after a
// single nil-check branch, mirroring the internal/metrics contract: an
// endpoint built without a tracer pays ~1 ns per event and allocates
// nothing (see bench_test.go). Layers keep a *Tracer in their config
// (alf.Config.Tracer, otp.Config.Tracer, netsim.Network.SetTracer,
// faults.Injector.SetTracer); nil means off.
//
// # Determinism
//
// Timestamps come exclusively from the sim.Scheduler's virtual clock,
// so a seeded run records a byte-identical trace. Exports (Perfetto
// JSON, terminal tables) iterate events in recorded order and assign
// track ids by sorted track name, so their output is deterministic too.
//
// # Causality
//
// The tracer derives causal links internally rather than threading ids
// through every layer:
//
//   - NACK → retransmission: NacksSent registers a pending flow per
//     (stream, name); the next FragmentSent with retx=true for that
//     name attaches it.
//   - loss → head-of-line stall: a sniffed OTP data drop remembers its
//     sequence range; a StallOpened blocked on an offset inside that
//     range attaches the drop's flow.
//   - fault window → drop: FaultBegan records which links a window
//     covers; a down-drop on a covered link attaches the window's flow.
//
// Network-level events identify their ADU by asking wire.Peek about
// the opaque payload (see sniff.go); endpoint events are authoritative.
package tracing

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/wire"
)

// Kind discriminates trace events.
type Kind uint8

// Event kinds, grouped by the layer that records them.
const (
	// ALF endpoint events (internal/core).
	ADUSubmit    Kind = iota + 1 // application handed an ADU to the sender
	FragTX                       // fragment handed to the wire (Dur = pacer wait)
	FragRetx                     // fragment retransmitted (Flow links the NACK)
	ParityTX                     // FEC parity fragment emitted
	HeartbeatTX                  // sender declared stream extent
	FragRX                       // receiver accepted a data fragment
	ParityRX                     // receiver accepted a parity fragment
	NackTX                       // receiver requested recovery of one ADU
	ChecksumFail                 // completed ADU failed verification, discarded
	ADUDeliver                   // verified ADU handed to the application
	ADULoss                      // receiver gave up and reported the loss
	ADUExpire                    // sender shed retention past ADUDeadline

	// OTP endpoint events (internal/otp). ADU carries the message index
	// (one index per Conn.Send call); Off/Len carry stream-offset ranges.
	MsgSubmit  // application wrote one message to the stream
	SegTX      // DATA segment transmitted
	SegRetx    // DATA segment retransmitted
	SegOOO     // segment buffered ahead of a gap
	SegDeliver // in-order delivery advanced (Off = old rcvNxt)
	StallOpen  // head-of-line stall opened (Off = blocked offset)
	StallClose // stall closed (Dur = stall length)

	// Network events (internal/netsim). Track is the link label.
	NetQueue   // packet committed to serialization (Dur = queue wait, Dur2 = serialization)
	NetDeliver // packet handed to the destination node (Dur = propagation)
	NetDrop    // packet dropped (Cause = queue|line|down)

	// Fault-plane events (internal/faults). Cause carries the kind.
	FaultBegin
	FaultEnd

	// Overload-control events (internal/core ratecontrol). Appended
	// after the original block so existing recorded kind values never
	// shift.
	ADUShed    // Droppable ADU shed before transmission (sender overloaded)
	FeedbackTX // receiver emitted a delivery report
	RateChange // controller set a new pacing rate (Off = old bps, Len = new bps)

	// Custody-transfer events (internal/relay and the sender's custody
	// handling). Appended after the overload block so existing recorded
	// kind values never shift.
	CustodyStore   // relay took custody of a complete ADU
	CustodyAckTX   // relay emitted a custody-ack frame upstream
	CustodyRelease // upstream custodian freed retention on a custody ack
	CustodyEvict   // relay evicted a non-Critical ADU to fit a new one
	CustodyShed    // relay refused custody: store full of unevictables
	CustodyRetx    // relay re-originated a custody ADU downstream
)

// String names the kind as it appears in timelines.
func (k Kind) String() string {
	switch k {
	case ADUSubmit:
		return "submit"
	case FragTX:
		return "frag-tx"
	case FragRetx:
		return "frag-retx"
	case ParityTX:
		return "parity-tx"
	case HeartbeatTX:
		return "hb-tx"
	case FragRX:
		return "frag-rx"
	case ParityRX:
		return "parity-rx"
	case NackTX:
		return "nack"
	case ChecksumFail:
		return "checksum-fail"
	case ADUDeliver:
		return "deliver"
	case ADULoss:
		return "lost"
	case ADUExpire:
		return "expire"
	case MsgSubmit:
		return "msg-submit"
	case SegTX:
		return "seg-tx"
	case SegRetx:
		return "seg-retx"
	case SegOOO:
		return "seg-ooo"
	case SegDeliver:
		return "seg-deliver"
	case StallOpen:
		return "stall-open"
	case StallClose:
		return "stall-close"
	case NetQueue:
		return "net-queue"
	case NetDeliver:
		return "net-deliver"
	case NetDrop:
		return "net-drop"
	case FaultBegin:
		return "fault-begin"
	case FaultEnd:
		return "fault-end"
	case ADUShed:
		return "shed"
	case FeedbackTX:
		return "feedback"
	case RateChange:
		return "rate"
	case CustodyStore:
		return "custody-store"
	case CustodyAckTX:
		return "custody-ack"
	case CustodyRelease:
		return "custody-release"
	case CustodyEvict:
		return "custody-evict"
	case CustodyShed:
		return "custody-shed"
	case CustodyRetx:
		return "custody-retx"
	default:
		return fmt.Sprintf("kind-%d", uint8(k))
	}
}

// Event is one recorded trace event. Which fields are meaningful
// depends on Kind (see the kind constants).
type Event struct {
	At    sim.Time
	Kind  Kind
	Track string    // "alf/snd/3", "alf/rcv/3", "otp/1", "net/a->b/0", "faults"
	ID    byte      // stream id (ALF) or connection id (OTP)
	ADU   uint64    // ADU name (ALF) or message index (OTP MsgSubmit)
	Tag   uint64    // application tag (ADUSubmit only)
	Off   int64     // fragment offset (ALF) or stream offset (OTP)
	Len   int       // fragment/segment/ADU payload length
	Cause string    // drop cause, fault kind
	Proto wire.Kind // sniffed payload class on net events: alf-data, alf-ctrl, ..., otp-ack
	Dur   sim.Duration
	Dur2  sim.Duration
	Flow  uint64 // non-zero: causal flow id shared by linked events
}

// Tracer records events on a virtual clock. The zero value is not
// usable; create tracers with New. A nil *Tracer is a valid disabled
// tracer: every method is a near-free no-op.
//
// Tracer is not safe for concurrent use; like the rest of the
// simulation it lives on the single scheduler goroutine.
type Tracer struct {
	sched  *sim.Scheduler
	events []Event
	limit  int

	// Dropped counts events discarded after the limit was reached.
	Dropped int64

	// Causal bookkeeping (see package comment).
	pendingNack map[nackKey]uint64  // (stream, name) -> flow id
	pendingDrop map[byte]*dropRange // conn id -> last dropped OTP data range
	faults      []*faultWindow
	nextFlow    uint64

	tracks map[trackKey]string // interned track names
}

// trackKey keys the track-name intern table without allocating: the
// prefix is always a string constant, so the key build is free.
type trackKey struct {
	prefix string
	id     byte
}

type nackKey struct {
	stream byte
	name   uint64
}

type dropRange struct {
	off  int64
	end  int64
	flow uint64
}

type faultWindow struct {
	flow   uint64
	kind   string
	links  map[string]bool
	active bool
}

// DefaultLimit bounds a tracer's event buffer unless SetLimit raises
// it: enough for hours of simulated protocol traffic, small enough
// that an accidental always-on tracer cannot eat the host.
const DefaultLimit = 1 << 20

// New returns a tracer recording on sched's virtual clock. sched may
// be nil when the scheduler does not exist yet (a harness that builds
// its own, like internal/faults/soak): the tracer records nothing
// until Bind attaches a clock.
func New(sched *sim.Scheduler) *Tracer {
	return &Tracer{
		sched:       sched,
		limit:       DefaultLimit,
		pendingNack: make(map[nackKey]uint64),
		pendingDrop: make(map[byte]*dropRange),
		tracks:      make(map[trackKey]string),
	}
}

// Bind attaches the tracer to a scheduler's virtual clock. Harnesses
// that accept a caller-made tracer but construct their scheduler
// internally call this before traffic starts. Nil-safe; a later Bind
// replaces the clock.
func (t *Tracer) Bind(sched *sim.Scheduler) {
	if t == nil {
		return
	}
	t.sched = sched
}

// SetLimit bounds the number of retained events (0 or negative means
// DefaultLimit). Events past the limit are counted in Dropped and
// discarded.
func (t *Tracer) SetLimit(n int) {
	if t == nil {
		return
	}
	if n <= 0 {
		n = DefaultLimit
	}
	t.limit = n
}

// Events returns the recorded events in order. The slice is shared;
// callers must not modify it.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	return t.events
}

// Len returns the number of recorded events (0 on a nil tracer).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.events)
}

// record appends one event stamped with the current virtual time.
func (t *Tracer) record(e Event) {
	if t.sched == nil {
		return // unbound (New(nil) before Bind): no clock, no events
	}
	if len(t.events) >= t.limit {
		t.Dropped++
		return
	}
	e.At = t.sched.Now()
	t.events = append(t.events, e)
}

// track interns a formatted track name so steady-state recording does
// not re-format (or re-allocate) per event.
func (t *Tracer) track(prefix string, id byte) string {
	key := trackKey{prefix, id}
	if s, ok := t.tracks[key]; ok {
		return s
	}
	s := fmt.Sprintf("%s%d", prefix, id)
	t.tracks[key] = s
	return s
}

// flow allocates a fresh causal flow id (never zero).
func (t *Tracer) flow() uint64 {
	t.nextFlow++
	return t.nextFlow
}

// ---- ALF endpoint hooks ------------------------------------------------

// ADUSubmitted records the application handing an ADU to the sender.
func (t *Tracer) ADUSubmitted(stream byte, name, tag uint64, size int) {
	if t == nil {
		return
	}
	t.record(Event{Kind: ADUSubmit, Track: t.track("alf/snd/", stream),
		ID: stream, ADU: name, Tag: tag, Len: size})
}

// FragmentSent records one fragment handed to the wire. wait is the
// pacer delay between framing and the actual handoff. Retransmissions
// attach the flow of the NACK that provoked them, when one is pending.
func (t *Tracer) FragmentSent(stream byte, name uint64, off, n int, retx, parity bool, wait sim.Duration) {
	if t == nil {
		return
	}
	kind := FragTX
	var flow uint64
	switch {
	case parity:
		kind = ParityTX
	case retx:
		kind = FragRetx
		flow = t.pendingNack[nackKey{stream, name}]
	}
	t.record(Event{Kind: kind, Track: t.track("alf/snd/", stream),
		ID: stream, ADU: name, Off: int64(off), Len: n, Dur: wait, Flow: flow})
}

// HeartbeatSent records a stream-extent declaration.
func (t *Tracer) HeartbeatSent(stream byte, next uint64) {
	if t == nil {
		return
	}
	t.record(Event{Kind: HeartbeatTX, Track: t.track("alf/snd/", stream),
		ID: stream, ADU: next})
}

// FragmentReceived records a fragment accepted into reassembly. A
// fragment answering a pending NACK closes (consumes) that flow so the
// causal arrow runs NACK → retransmission → arrival.
func (t *Tracer) FragmentReceived(stream byte, name uint64, off, n int, parity bool) {
	if t == nil {
		return
	}
	kind := FragRX
	if parity {
		kind = ParityRX
	}
	k := nackKey{stream, name}
	flow := t.pendingNack[k]
	if flow != 0 {
		delete(t.pendingNack, k)
	}
	t.record(Event{Kind: kind, Track: t.track("alf/rcv/", stream),
		ID: stream, ADU: name, Off: int64(off), Len: n, Flow: flow})
}

// ADUChecksumFailed records a completed ADU discarded on verification.
func (t *Tracer) ADUChecksumFailed(stream byte, name uint64) {
	if t == nil {
		return
	}
	t.record(Event{Kind: ChecksumFail, Track: t.track("alf/rcv/", stream),
		ID: stream, ADU: name})
}

// ADUDelivered records a verified ADU handed to the application.
func (t *Tracer) ADUDelivered(stream byte, name uint64, size int) {
	if t == nil {
		return
	}
	t.record(Event{Kind: ADUDeliver, Track: t.track("alf/rcv/", stream),
		ID: stream, ADU: name, Len: size})
}

// ADULost records the receiver abandoning an ADU.
func (t *Tracer) ADULost(stream byte, name uint64) {
	if t == nil {
		return
	}
	t.record(Event{Kind: ADULoss, Track: t.track("alf/rcv/", stream),
		ID: stream, ADU: name})
}

// ADUExpired records the sender shedding retention past ADUDeadline.
func (t *Tracer) ADUExpired(stream byte, name uint64) {
	if t == nil {
		return
	}
	t.record(Event{Kind: ADUExpire, Track: t.track("alf/snd/", stream),
		ID: stream, ADU: name})
}

// NacksSent records one recovery request per named ADU and opens a
// causal flow each, to be attached by the retransmission it provokes.
func (t *Tracer) NacksSent(stream byte, names []uint64) {
	if t == nil {
		return
	}
	for _, name := range names {
		f := t.flow()
		t.pendingNack[nackKey{stream, name}] = f
		t.record(Event{Kind: NackTX, Track: t.track("alf/rcv/", stream),
			ID: stream, ADU: name, Flow: f})
	}
}

// ADUShed records a Droppable ADU shed before transmission while the
// sender was overloaded. name is the name the ADU would have been
// assigned (it consumes none).
func (t *Tracer) ADUShed(stream byte, name, tag uint64, size int) {
	if t == nil {
		return
	}
	t.record(Event{Kind: ADUShed, Track: t.track("alf/snd/", stream),
		ID: stream, ADU: name, Tag: tag, Len: size})
}

// FeedbackSent records the receiver emitting delivery report seq with
// wireBytes cumulative wire volume accepted.
func (t *Tracer) FeedbackSent(stream byte, seq uint32, wireBytes int64) {
	if t == nil {
		return
	}
	t.record(Event{Kind: FeedbackTX, Track: t.track("alf/rcv/", stream),
		ID: stream, ADU: uint64(seq), Off: wireBytes})
}

// RateChanged records a controller-driven pacing change from oldBps to
// newBps (Off and Len respectively, in bits/s).
func (t *Tracer) RateChanged(stream byte, oldBps, newBps float64) {
	if t == nil {
		return
	}
	t.record(Event{Kind: RateChange, Track: t.track("alf/snd/", stream),
		ID: stream, Off: int64(oldBps), Len: int(newBps)})
}

// ---- Custody-relay hooks -----------------------------------------------

// CustodyStored records a relay taking custody of a complete ADU of
// size payload bytes. relay names the custody node's track.
func (t *Tracer) CustodyStored(relay string, stream byte, name uint64, size int) {
	if t == nil {
		return
	}
	t.record(Event{Kind: CustodyStore, Track: "relay/" + relay,
		ID: stream, ADU: name, Len: size})
}

// CustodyAckSent records a relay acknowledging custody upstream: cum
// is the custody frontier and n the count of out-of-order names in the
// frame.
func (t *Tracer) CustodyAckSent(relay string, stream byte, cum uint64, n int) {
	if t == nil {
		return
	}
	t.record(Event{Kind: CustodyAckTX, Track: "relay/" + relay,
		ID: stream, ADU: cum, Len: n})
}

// CustodyReleased records the upstream custodian (the original sender)
// freeing its retained copy of an ADU on a custody ack from relay id.
func (t *Tracer) CustodyReleased(stream, relay byte, name uint64) {
	if t == nil {
		return
	}
	t.record(Event{Kind: CustodyRelease, Track: t.track("alf/snd/", stream),
		ID: stream, ADU: name, Off: int64(relay)})
}

// CustodyEvicted records a relay evicting a stored non-Critical ADU to
// make room.
func (t *Tracer) CustodyEvicted(relay string, stream byte, name uint64, size int) {
	if t == nil {
		return
	}
	t.record(Event{Kind: CustodyEvict, Track: "relay/" + relay,
		ID: stream, ADU: name, Len: size})
}

// CustodyShedded records a relay refusing custody of an arriving ADU
// because the store held only unevictable (Critical) data.
func (t *Tracer) CustodyShedded(relay string, stream byte, name uint64, size int) {
	if t == nil {
		return
	}
	t.record(Event{Kind: CustodyShed, Track: "relay/" + relay,
		ID: stream, ADU: name, Len: size})
}

// CustodyResent records a relay re-originating a custody ADU toward
// the next hop (heal-triggered or periodic retry).
func (t *Tracer) CustodyResent(relay string, stream byte, name uint64, frags int) {
	if t == nil {
		return
	}
	t.record(Event{Kind: CustodyRetx, Track: "relay/" + relay,
		ID: stream, ADU: name, Len: frags})
}

// ---- OTP endpoint hooks ------------------------------------------------

// MessageSubmitted records one application write to the ordered stream:
// index is the per-connection write count, off the stream offset where
// the message begins. Messages are the OTP-side ADU equivalent the
// analysis attributes stalls to.
func (t *Tracer) MessageSubmitted(conn byte, index uint64, off int64, n int) {
	if t == nil {
		return
	}
	t.record(Event{Kind: MsgSubmit, Track: t.track("otp/", conn),
		ID: conn, ADU: index, Off: off, Len: n})
}

// SegmentSent records a DATA segment transmission.
func (t *Tracer) SegmentSent(conn byte, seq int64, n int, retx bool) {
	if t == nil {
		return
	}
	kind := SegTX
	if retx {
		kind = SegRetx
	}
	t.record(Event{Kind: kind, Track: t.track("otp/", conn),
		ID: conn, Off: seq, Len: n})
}

// SegmentBuffered records a segment held behind a gap (out of order).
func (t *Tracer) SegmentBuffered(conn byte, seq int64, n int) {
	if t == nil {
		return
	}
	t.record(Event{Kind: SegOOO, Track: t.track("otp/", conn),
		ID: conn, Off: seq, Len: n})
}

// SegmentDelivered records in-order delivery advancing from oldNxt by
// n bytes.
func (t *Tracer) SegmentDelivered(conn byte, oldNxt int64, n int) {
	if t == nil {
		return
	}
	t.record(Event{Kind: SegDeliver, Track: t.track("otp/", conn),
		ID: conn, Off: oldNxt, Len: n})
}

// StallOpened records a head-of-line stall opening: the stream is
// blocked at offset blockedAt (the §5 in-order delivery cost,
// per-stall — the same signal otp.hol_stall_ns aggregates). If a
// sniffed drop covers the blocked offset, its flow is attached: the
// loss caused this stall.
func (t *Tracer) StallOpened(conn byte, blockedAt int64) {
	if t == nil {
		return
	}
	var flow uint64
	if d := t.pendingDrop[conn]; d != nil && d.off <= blockedAt && blockedAt < d.end {
		flow = d.flow
		delete(t.pendingDrop, conn)
	}
	t.record(Event{Kind: StallOpen, Track: t.track("otp/", conn),
		ID: conn, Off: blockedAt, Flow: flow})
}

// StallClosed records the stall ending after dur.
func (t *Tracer) StallClosed(conn byte, dur sim.Duration) {
	if t == nil {
		return
	}
	t.record(Event{Kind: StallClose, Track: t.track("otp/", conn),
		ID: conn, Dur: dur})
}

// ---- Network hooks (internal/netsim) -----------------------------------

// PacketQueued records a packet committed to serialization on a link:
// qwait is the time it will wait behind earlier packets, ser its own
// serialization time. The payload is sniffed for ADU identity.
func (t *Tracer) PacketQueued(link string, payload []byte, qwait, ser sim.Duration) {
	if t == nil {
		return
	}
	e := Event{Kind: NetQueue, Track: link, Dur: qwait, Dur2: ser, Len: len(payload)}
	sniffInto(&e, payload)
	t.record(e)
}

// PacketDelivered records a packet handed to its destination node after
// prop of propagation (including any reorder holdback).
func (t *Tracer) PacketDelivered(link string, payload []byte, prop sim.Duration) {
	if t == nil {
		return
	}
	e := Event{Kind: NetDeliver, Track: link, Dur: prop, Len: len(payload)}
	sniffInto(&e, payload)
	t.record(e)
}

// PacketDropped records a drop with its cause ("queue", "line",
// "down"). Down-drops inside an active fault window attach the
// window's flow; a dropped OTP data segment is remembered so the stall
// it opens can be linked back to it.
func (t *Tracer) PacketDropped(link, cause string, payload []byte) {
	if t == nil {
		return
	}
	e := Event{Kind: NetDrop, Track: link, Cause: cause, Len: len(payload)}
	sniffInto(&e, payload)
	if cause == "down" {
		for i := len(t.faults) - 1; i >= 0; i-- {
			if w := t.faults[i]; w.active && w.links[link] {
				e.Flow = w.flow
				break
			}
		}
	}
	if e.Proto == wire.KindOTPData {
		flow := e.Flow
		if flow == 0 {
			flow = t.flow()
			e.Flow = flow
		}
		t.pendingDrop[e.ID] = &dropRange{off: e.Off, end: e.Off + int64(e.Len), flow: flow}
	}
	t.record(e)
}

// ---- Fault-plane hooks (internal/faults) -------------------------------

// FaultBegan records a fault window opening over the named links and
// returns its flow id (0 on a nil tracer). Drops on those links while
// the window is active link back to it.
func (t *Tracer) FaultBegan(kind string, links []string) uint64 {
	if t == nil {
		return 0
	}
	w := &faultWindow{flow: t.flow(), kind: kind, links: make(map[string]bool, len(links)), active: true}
	for _, l := range links {
		w.links[l] = true
	}
	t.faults = append(t.faults, w)
	t.record(Event{Kind: FaultBegin, Track: "faults", Cause: kind, Flow: w.flow})
	return w.flow
}

// FaultEnded records the window identified by flow closing.
func (t *Tracer) FaultEnded(flow uint64) {
	if t == nil {
		return
	}
	for _, w := range t.faults {
		if w.flow == flow && w.active {
			w.active = false
			t.record(Event{Kind: FaultEnd, Track: "faults", Cause: w.kind, Flow: flow})
			return
		}
	}
	t.record(Event{Kind: FaultEnd, Track: "faults", Flow: flow})
}
