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
// # One declaration per event
//
// An event kind is a constant and a row of the kinds table (its
// timeline name and the family of track it is drawn on), and recording
// one is a call of Emit with that constant:
//
//	cfg.Tracer.Emit(tracing.ADUDeliver, stream, name, 0, size, 0)
//
// EmitTag is Emit for the kinds that carry an application tag. The
// network and fault planes keep hooks of their own — PacketQueued,
// PacketDelivered and PacketDropped sniff an opaque payload for its
// identity, FaultBegan and FaultEnded own the fault windows.
//
// # Cost when disabled
//
// Every recording method is safe on a nil *Tracer, mirroring the
// internal/metrics contract, and Emit's body is a nil check around one
// call, so the compiler inlines it: an endpoint built without a tracer
// pays a compare and a predicted branch per event, no call, and
// allocates nothing (make alloc-guard holds the compiler to the
// inlining, TestDisabledTracerOverhead to the allocations). Layers keep
// a *Tracer in their config (alf.Config.Tracer, otp.Config.Tracer,
// netsim.Network.SetTracer, faults.Injector.SetTracer); nil means off.
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
// The tracer derives causal links itself rather than threading ids
// through every layer, and the endpoint ones are all made in one
// place, emit, by the kind of the event passing through:
//
//   - NACK → retransmission → arrival: a NackTX opens a flow for its
//     (stream, name); a FragRetx of that name attaches it; the next
//     FragRX or ParityRX of that name attaches and closes it. An
//     ADUDeliver, ADULoss or ADUExpire closes a flow nothing answered,
//     and a full event buffer opens none.
//   - loss → head-of-line stall: a sniffed OTP data drop remembers its
//     sequence range (PacketDropped); a StallOpen blocked on an offset
//     inside that range attaches the drop's flow.
//   - fault window → drop: FaultBegan records which links a window
//     covers; a down-drop on a covered link attaches the window's flow.
//
// Network-level events identify their ADU by asking wire.Peek about
// the opaque payload (see sniff.go); endpoint events are authoritative.
package tracing

import (
	"fmt"
	"slices"

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

	// Custody-transfer events (the sender's custody handling).
	CustodyRelease // upstream custodian freed retention on a custody ack

	numKinds // one past the last kind; new kinds go above this line
)

// family is the prefix shared by the track names of one group of
// kinds; what follows it says which member of the group.
type family string

const (
	famSender   family = "alf/snd/" // + stream id
	famReceiver family = "alf/rcv/" // + stream id
	famOTP      family = "otp/"     // + connection id
	famLink     family = "net/"     // the link's label, as netsim passes it
	famFaults   family = "faults"   // the one fault-plane track
)

// kinds is the one declaration of every event kind besides its
// constant: the name it carries in timelines and the track family it is
// drawn on.
var kinds = [numKinds]struct {
	name string
	fam  family
}{
	ADUSubmit:      {"submit", famSender},
	FragTX:         {"frag-tx", famSender},
	FragRetx:       {"frag-retx", famSender},
	ParityTX:       {"parity-tx", famSender},
	HeartbeatTX:    {"hb-tx", famSender},
	FragRX:         {"frag-rx", famReceiver},
	ParityRX:       {"parity-rx", famReceiver},
	NackTX:         {"nack", famReceiver},
	ChecksumFail:   {"checksum-fail", famReceiver},
	ADUDeliver:     {"deliver", famReceiver},
	ADULoss:        {"lost", famReceiver},
	ADUExpire:      {"expire", famSender},
	MsgSubmit:      {"msg-submit", famOTP},
	SegTX:          {"seg-tx", famOTP},
	SegRetx:        {"seg-retx", famOTP},
	SegOOO:         {"seg-ooo", famOTP},
	SegDeliver:     {"seg-deliver", famOTP},
	StallOpen:      {"stall-open", famOTP},
	StallClose:     {"stall-close", famOTP},
	NetQueue:       {"net-queue", famLink},
	NetDeliver:     {"net-deliver", famLink},
	NetDrop:        {"net-drop", famLink},
	FaultBegin:     {"fault-begin", famFaults},
	FaultEnd:       {"fault-end", famFaults},
	ADUShed:        {"shed", famSender},
	FeedbackTX:     {"feedback", famReceiver},
	RateChange:     {"rate", famSender},
	CustodyRelease: {"custody-release", famSender},
}

// String names the kind as it appears in timelines.
func (k Kind) String() string {
	if int(k) < len(kinds) && kinds[k].name != "" {
		return kinds[k].name
	}
	return fmt.Sprintf("kind-%d", uint8(k))
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
	pendingNack map[aduKey]uint64  // (stream, name) -> flow id
	pendingDrop map[byte]dropRange // conn id -> last dropped OTP data range
	faults      []*faultWindow
	nextFlow    uint64

	tracks map[trackKey]string // interned track names
}

// trackKey keys the track-name intern table without allocating: the
// prefix is always a string constant, so the key build is free.
type trackKey struct {
	prefix family
	id     byte
}

type dropRange struct {
	off  int64
	end  int64
	flow uint64
}

type faultWindow struct {
	flow   uint64
	kind   string
	links  []string
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
		pendingNack: make(map[aduKey]uint64),
		pendingDrop: make(map[byte]dropRange),
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
func (t *Tracer) track(prefix family, id byte) string {
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

// ---- Endpoint events (internal/core, internal/otp, internal/relay) -----

// Emit records one endpoint event of kind k on the track of stream (or
// connection) id. What adu, off, n and dur carry is the kind's business
// (see the kind constants); pass zero for the ones it has no use for.
// The body is a nil check and a call so that it inlines: a layer built
// without a tracer pays one branch per event and no call.
func (t *Tracer) Emit(k Kind, id byte, adu uint64, off int64, n int, dur sim.Duration) {
	if t != nil {
		t.emit(Event{Kind: k, ID: id, ADU: adu, Off: off, Len: n, Dur: dur})
	}
}

// EmitTag is Emit for the two kinds that carry the application's tag:
// ADUSubmit and ADUShed.
func (t *Tracer) EmitTag(k Kind, id byte, adu, tag uint64, n int) {
	if t != nil {
		t.emit(Event{Kind: k, ID: id, ADU: adu, Tag: tag, Len: n})
	}
}

// emit names e's track when the caller has not, makes the causal links
// that hang on e's kind (see the package comment), and records it.
func (t *Tracer) emit(e Event) {
	if e.Track == "" {
		e.Track = t.track(kinds[e.Kind].fam, e.ID)
	}
	k := aduKey{e.ID, e.ADU}
	switch e.Kind {
	case NackTX:
		// A tracer that has stopped keeping events opens no flow:
		// nothing would ever show it.
		if t.sched != nil && len(t.events) < t.limit {
			e.Flow = t.flow()
			t.pendingNack[k] = e.Flow
		}
	case FragRetx:
		e.Flow = t.pendingNack[k]
	case FragRX, ParityRX:
		// The arrival answering a NACK consumes its flow, so the arrow
		// runs NACK → retransmission → arrival and stops.
		if e.Flow = t.pendingNack[k]; e.Flow != 0 {
			delete(t.pendingNack, k)
		}
	case ADUDeliver, ADULoss, ADUExpire:
		// The name is settled: a NACK nothing answered is closed here.
		delete(t.pendingNack, k)
	case StallOpen:
		if d, ok := t.pendingDrop[e.ID]; ok && d.off <= e.Off && e.Off < d.end {
			e.Flow = d.flow
			delete(t.pendingDrop, e.ID)
		}
	}
	t.record(e)
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
			if w := t.faults[i]; w.active && slices.Contains(w.links, link) {
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
		t.pendingDrop[e.ID] = dropRange{off: e.Off, end: e.Off + int64(e.Len), flow: flow}
	}
	t.record(e)
}

// ---- Fault-plane hooks (internal/faults) -------------------------------

// FaultBegan records a fault window opening over the named links and
// returns its flow id (0 on a nil tracer). Drops on those links while
// the window is active link back to it. The tracer keeps links.
func (t *Tracer) FaultBegan(kind string, links []string) uint64 {
	if t == nil {
		return 0
	}
	w := &faultWindow{flow: t.flow(), kind: kind, links: links, active: true}
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
