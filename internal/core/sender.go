package alf

import (
	"fmt"
	"math"

	"repro/internal/buf"
	"repro/internal/ilp"
	"repro/internal/sim"
	"repro/internal/tracing"
	"repro/internal/wire"
	"repro/internal/xcode"
)

// SenderStats counts sender events.
type SenderStats struct {
	ADUs          int64 `metric:"adus"`           // ADUs submitted
	Fragments     int64 `metric:"fragments"`      // first-transmission fragments
	Bytes         int64 `metric:"frag_bytes"`     // first-transmission payload bytes
	ResentADUs    int64 `metric:"resent_adus"`    // whole-ADU retransmissions (SenderBuffered)
	RecomputeADUs int64 `metric:"recompute_adus"` // whole-ADU regenerations (AppRecompute)
	ResentFrags   int64 `metric:"resent_frags"`
	UnfilledNacks int64 `metric:"unfilled_nacks"` // NACKs we could not satisfy
	Released      int64 `metric:"released"`       // buffered ADUs freed by cumulative acks
	DeadlineDrops int64 `metric:"deadline_drops"` // buffered ADUs shed by ADUDeadline, unconfirmed
	CtrlReceived  int64 `metric:"ctrl_received"`
	CtrlDropped   int64 `metric:"ctrl_dropped"` // corrupt control messages
	Heartbeats    int64 `metric:"heartbeats"`
	ParityFrags   int64 `metric:"parity_frags"`   // FEC parity fragments emitted
	ILPPassBytes  int64 `metric:"ilp_pass_bytes"` // payload bytes through the fused seal/copy/checksum pass (§4)

	// Overload-robustness accounting (see ratecontrol.go).
	ShedADUs       int64 `metric:"shed_adus"`       // Droppable ADUs shed before transmission
	FeedbackRecv   int64 `metric:"feedback_rx"`     // feedback reports accepted (fresh sequence)
	RateChanges    int64 `metric:"rate_changes"`    // controller-driven rate updates applied
	RetxSuppressed int64 `metric:"retx_suppressed"` // resends withheld by the recovery-bandwidth cap
	WireBytes      int64 `metric:"wire_bytes"`      // data-plane wire bytes emitted (headers included)

	// Custody-transfer accounting (Config.Custody; see internal/relay).
	CustodyAcks     int64 `metric:"custody_acks"`     // custody-ack frames accepted
	CustodyReleased int64 `metric:"custody_released"` // buffered ADUs freed by custody transfer
	CustodyNacks    int64 `metric:"custody_nacks"`    // NACKs suppressed: the ADU is in downstream custody
}

// wireFrag is one stamped wire packet (header + fragment payload) in a
// pooled buffer, plus the fragment coordinates the tracer and stats
// need at emission time.
type wireFrag struct {
	ref    *buf.Ref // header+payload view; holder owns one count
	off, n int      // fragment offset and payload length within the ADU
	parity bool
}

// savedADU is the retention state under SenderBuffered, one slot of
// the sender's window: the stamped wire packets themselves, retained by
// reference. A resend re-emits the same buffers (every header field is
// identical on resend), so retransmission copies nothing.
type savedADU struct {
	frags   []wireFrag
	wireLen int      // ADU payload bytes (BufferedBytes accounting)
	sentAt  sim.Time // submission time, for the ADUDeadline sweep
	class   Priority // Critical resends bypass the recovery cap
	held    bool     // retained now; false once released, the slot a hole until the window passes it
}

// retain starts retention of a just-stamped ADU in the next slot of the
// window, reusing the fragment list its last occupant left there.
func (s *Sender) retain(name uint64, saved savedADU, frags []wireFrag) {
	a := s.buffered.extend(name)
	saved.held, saved.frags = true, append(a.frags[:0], frags...)
	*a = saved
	s.bufADUs++
	s.bufBytes += a.wireLen
}

// unretain ends retention of a buffered ADU: its wire packets go back
// to the pool, its fragment list stays in the slot for the next ADU,
// and the window closes up to the lowest name still retained — so
// while anything is retained, the window's base is.
func (s *Sender) unretain(a *savedADU) {
	for _, f := range a.frags {
		f.ref.Release()
	}
	a.frags = a.frags[:0]
	a.held = false
	s.bufADUs--
	s.bufBytes -= a.wireLen
	for w := &s.buffered; w.n > 0 && !w.at(w.base).held; {
		w.shift()
	}
}

// retained returns the record of a retained ADU, or nil.
func (s *Sender) retained(name uint64) *savedADU {
	if a := s.buffered.at(name); a != nil && a.held {
		return a
	}
	return nil
}

// Sender is the sending half of an ALF stream.
type Sender struct {
	cfg   Config
	sched *sim.Scheduler
	send  func([]byte) error // heartbeats only; nil sends none

	// SendRef transmits every data and parity packet as a pooled
	// refcounted buffer and must be set before the first Send. The
	// callee owns the passed count, even on error (netsim.Link.SendRef
	// has exactly this contract); one that only reads the bytes
	// releases the ref when done.
	SendRef func(*buf.Ref) error

	// spare holds the packetization worklist and the deferred-call
	// records, reused across Sends so the steady state does not allocate.
	spare *spares
	// crypto is the chain that carries a sealed fragment's last chunk
	// into the next one's kernel call, and the lanes its tag keys and
	// heads come from (suiteOps.chained); nil under a suite without a tag.
	crypto *sealState

	// OnResend supplies ADU payloads under the AppRecompute policy: the
	// application regenerates the data (and its tag and syntax) for a
	// named ADU, or reports that it cannot. The returned payload must
	// equal the original or the receiver's checksum will reject it.
	OnResend func(name uint64) (tag uint64, syntax xcode.SyntaxID, data []byte, ok bool)
	// OnRelease, if set, is told when retention of a buffered ADU ends
	// (delivery confirmed or given up by the receiver). The names one
	// control frame or deadline sweep releases arrive in ascending
	// order; a custody ack releases its frontier in ascending order and
	// then the names it lists, in the frame's order.
	OnRelease func(name uint64)
	// OnExpire, if set, is told when ADUDeadline sheds a still-
	// unconfirmed ADU: the transport can no longer recover it, and the
	// application decides what that means (recompute later, log, skip).
	// OnRelease follows for the same name. One sweep expires names in
	// ascending order.
	OnExpire func(name uint64)

	nextName uint64
	// buffered holds the retained ADUs by name, from the lowest still
	// retained to the newest; names released out of order (custody) are
	// holes in it until the base passes them. sentAt is non-decreasing
	// in name, so whatever is released or expired first is a prefix.
	buffered  window[savedADU]
	bufADUs   int
	bufBytes  int
	pacerFree sim.Time

	// Heartbeat: declares the stream extent to the receiver while
	// deliveries are unconfirmed, so tail loss is detectable.
	// emittedNext tracks the extent actually handed to the network (the
	// pacer may still hold later ADUs; declaring those would make the
	// receiver chase data that was never sent).
	hb          *sim.Timer
	lastCum     uint64
	hbMisses    int
	emittedNext uint64
	jitter      uint64 // deterministic LCG state for heartbeat jitter

	// retire sweeps ADUDeadline-expired retention, armed only while ADUs
	// are buffered; nil without a deadline.
	retire *sim.Timer

	// Custody-transfer state (Config.Custody): every name below
	// custodyCum is held by a downstream relay, and custodyDone records
	// out-of-order custody above the frontier. A NACK for a custody-
	// released name is the receiver asking for data the relay now owns;
	// resending it from here would race the relay's own recovery, so it
	// is suppressed (Stats.CustodyNacks).
	custodyCum  uint64
	custodyDone map[uint64]struct{}

	// Closed-loop state (see ratecontrol.go): the last feedback report
	// processed, kept cumulative so per-interval deltas survive lost
	// reports, and the loss EWMA that drives shedding.
	fbAt     sim.Time // arrival time of that report
	fbWire   int64    // receiver's cumulative wire bytes at that report
	fbGood   int64    // receiver's cumulative delivered payload bytes
	fbSent   int64    // our own WireBytes at that report
	lossEWMA float64  // smoothed reported loss fraction
	fbSeq    uint32   // highest report sequence accepted

	// Recovery-bandwidth token bucket (RecoveryFrac): bytes of resend
	// budget, replenished at RecoveryFrac x RateBps. retxInit sits
	// beside fbSeq so that the two share a word (TestSenderSizeClass).
	retxInit   bool
	retxTokens float64
	retxLast   sim.Time

	m senderMetrics

	Stats SenderStats
}

// NewSender creates the sending end of a stream. send carries its
// heartbeats, and nothing else, toward the receiver; a nil send arms
// none. Data leaves by Sender.SendRef, set before the first Send.
func NewSender(sched *sim.Scheduler, send func([]byte) error, cfg Config) (*Sender, error) {
	s := new(Sender)
	if err := s.init(sched, send, cfg, new(sim.Timer), new(spares)); err != nil {
		return nil, err
	}
	return s, nil
}

// init is NewSender in place on a zero Sender, given its heartbeat timer
// and spares (a sharded flow's are in its slab slot and its shard).
func (s *Sender) init(sched *sim.Scheduler, send func([]byte) error, cfg Config, hb *sim.Timer, sp *spares) error {
	if err := cfg.prepare(); err != nil {
		return err
	}
	s.cfg, s.sched, s.send, s.hb, s.spare = cfg, sched, send, hb, sp
	s.cfg.ledger = cfg.ledger.orNew()
	if cfg.suite.chained && s.crypto == nil {
		s.crypto = new(sealState)
	}
	sched.InitTimer(hb, onHeartbeat, s)
	if cfg.ADUDeadline > 0 {
		s.retire = new(sim.Timer)
		sched.InitTimer(s.retire, onRetire, s)
	}
	// Seed the jitter stream from the config so runs stay deterministic
	// and streams sharing a node desynchronize.
	s.jitter = uint64(cfg.StreamID)*0x9E3779B97F4A7C15 ^ cfg.Key ^ 0xD1B54A32D192ED03
	s.m = bindSenderMetrics(cfg.Metrics, s)
	return nil
}

// onHeartbeat, the heartbeat timer's call (its argument the sender),
// periodically declares the stream extent until the receiver confirms
// it (or the limit gives up on a dead path).
func onHeartbeat(arg any) {
	s := arg.(*Sender)
	if s.lastCum >= s.nextName || s.hbMisses >= s.cfg.HeartbeatLimit {
		return
	}
	s.hbMisses++
	if s.emittedNext > 0 {
		s.Stats.Heartbeats++
		s.cfg.Tracer.Emit(tracing.HeartbeatTX, s.cfg.StreamID, s.emittedNext, 0, 0, 0)
		s.spare.frame = wire.EncodeHeartbeat(s.spare.control(&s.cfg), s.cfg.StreamID, s.emittedNext)
		_ = s.send(s.spare.frame)
	}
	s.hb.Reset(s.hbInterval())
}

// hbSilentMisses is how many consecutive unanswered heartbeats count
// as "silence": below it the heartbeat keeps its plain configured
// cadence (transient stalls on a healthy path are left alone); from it
// onward the interval doubles every two further misses up to
// HeartbeatMaxInterval, with ±25% jitter.
const hbSilentMisses = 4

// hbBackoff returns the current un-jittered heartbeat backoff level.
// It is a pure read of the miss count — no PRNG step — so the
// telemetry plane can expose it as a gauge without perturbing the
// jitter stream (and with it, the run's determinism).
func (s *Sender) hbBackoff() sim.Duration {
	iv, max := s.cfg.HeartbeatInterval, s.cfg.HeartbeatMaxInterval
	if s.hbMisses < hbSilentMisses {
		return iv
	}
	// min(iv<<k, max), compared before shifting: with the hour-scale
	// intervals a DTN path configures, the doubling reaches the int64
	// edge in a few dozen misses, and a wrapped-negative interval would
	// stall the timer forever.
	if k := (s.hbMisses - hbSilentMisses) / 2; k < 63 && iv <= max>>k {
		return iv << k
	}
	return max
}

// hbInterval returns the next heartbeat delay. During a blackout this
// decays the probe rate instead of hammering a dead path at the data-
// plane NACK cadence; the jitter keeps recovering streams from
// re-probing in phase.
func (s *Sender) hbInterval() sim.Duration {
	iv := s.hbBackoff()
	if s.hbMisses < hbSilentMisses {
		return iv
	}
	// xorshift step; low bits of the advanced state give the jitter.
	s.jitter ^= s.jitter << 13
	s.jitter ^= s.jitter >> 7
	s.jitter ^= s.jitter << 17
	span := int64(iv) / 2
	if span <= 0 {
		return iv
	}
	// iv - iv/4 is iv*3/4 without the iv*3 overflow, and the final sum
	// saturates: HeartbeatMaxInterval may legitimately sit near the
	// int64 horizon.
	base := iv - iv/4
	j := sim.Duration(int64(s.jitter>>1) % span)
	if base > sim.Duration(math.MaxInt64)-j {
		return sim.Duration(math.MaxInt64)
	}
	return base + j
}

// onRetire, the retire timer's call, sheds retention past the
// ADUDeadline and re-arms for the next earliest expiry.
func onRetire(arg any) {
	s := arg.(*Sender)
	now := s.sched.Now()
	// Oldest first: the first ADU not yet due is the next expiry, and
	// none above it is due sooner.
	for w := &s.buffered; w.n > 0; {
		name, saved := w.base, w.at(w.base)
		due := saved.sentAt.Add(s.cfg.ADUDeadline)
		if due < saved.sentAt {
			// sentAt + deadline wrapped past the int64 horizon: at
			// hour-scale deadlines deep into a long run the sum can
			// overflow, and a wrapped due would expire the ADU
			// instantly. Treat it, and the younger ones above it, as
			// never-due instead.
			return
		}
		if due > now {
			s.retire.Reset(due.Sub(now))
			return
		}
		s.unretain(saved)
		s.Stats.DeadlineDrops++
		s.cfg.Tracer.Emit(tracing.ADUExpire, s.cfg.StreamID, name, 0, 0, 0)
		if s.OnExpire != nil {
			s.OnExpire(name)
		}
		if s.OnRelease != nil {
			s.OnRelease(name)
		}
	}
}

// NextName returns the name the next Send will assign.
func (s *Sender) NextName() uint64 { return s.nextName }

// BufferedBytes returns the payload bytes currently retained for
// retransmission.
func (s *Sender) BufferedBytes() int { return s.bufBytes }

// BufferedADUs returns the number of ADUs currently retained.
func (s *Sender) BufferedADUs() int { return s.bufADUs }

// SetRate changes the pacing rate (out-of-band rate control, §3). Zero
// disables pacing. With a Controller configured this is the knob the
// control loop itself turns; calling it by hand still works but the
// next feedback report may override it.
func (s *Sender) SetRate(bps float64) { s.cfg.RateBps = bps }

// Rate returns the current pacing rate in bits/s (zero: unpaced).
func (s *Sender) Rate() float64 { return s.cfg.RateBps }

// backlog reports how far into the future the pacer is booked: the
// delay a fragment submitted now would wait before reaching the wire.
func (s *Sender) backlog(now sim.Time) sim.Duration {
	return max(s.pacerFree.Sub(now), 0)
}

// Backlog returns the current pacer backlog.
func (s *Sender) Backlog() sim.Duration { return s.backlog(s.sched.Now()) }

// shouldShed reports whether the sender is overloaded enough to shed
// Droppable ADUs: the pacer is booked past ShedBacklog, or the
// receiver-reported loss EWMA exceeds ShedLossFrac.
func (s *Sender) shouldShed() bool {
	return s.cfg.ShedBacklog > 0 && s.backlog(s.sched.Now()) > s.cfg.ShedBacklog ||
		s.cfg.ShedLossFrac > 0 && s.lossEWMA > s.cfg.ShedLossFrac
}

// Send frames data as the next ADU and transmits its fragments. tag is
// the application's naming information for the ADU (file offset, frame
// and slice, call id); syntax identifies how data is encoded. It
// returns the assigned ADU name.
//
// The data is copied (and under an enciphering Suite, enciphered) before
// return; the caller may reuse the buffer. The copy is the gather
// pass: each fragment's wire payload is produced directly in a pooled
// buffer with header headroom, checksummed in the same fused pass, so
// packetization touches the data exactly once and allocates nothing in
// steady state.
func (s *Sender) Send(tag uint64, syntax xcode.SyntaxID, data []byte) (uint64, error) {
	return s.SendClass(tag, syntax, data, Standard)
}

// SendClass is Send with an explicit priority class (ratecontrol.go):
// the application's statement of what must survive overload. Critical
// and Standard ADUs always transmit; a Droppable ADU submitted while
// the sender is overloaded (pacer backlog past ShedBacklog, or the
// reported-loss EWMA past ShedLossFrac) is shed before packetization —
// SendClass returns ErrShed, the ADU consumes no name, and nothing
// reaches the network. Shedding here, at the sender, is the ALF
// position on overload: the application picks what is lost, instead of
// a bottleneck queue tail-dropping fragments blindly. Without SendRef
// every ADU is refused with ErrConfig, before any of this.
func (s *Sender) SendClass(tag uint64, syntax xcode.SyntaxID, data []byte, class Priority) (uint64, error) {
	if s.SendRef == nil {
		return 0, fmt.Errorf("%w: SendRef not set", ErrConfig)
	}
	if class == Droppable && s.shouldShed() {
		s.Stats.ShedADUs++
		s.cfg.Tracer.EmitTag(tracing.ADUShed, s.cfg.StreamID, s.nextName, tag, len(data))
		return 0, ErrShed
	}
	if len(data) > s.cfg.MaxADU {
		return 0, fmt.Errorf("%w: %d bytes", ErrADUTooLarge, len(data))
	}
	if s.cfg.Policy == SenderBuffered && s.bufBytes+len(data) > s.cfg.BufferLimit {
		return 0, fmt.Errorf("%w: %d retained", ErrBufferLimit, s.bufBytes)
	}
	name := s.nextName

	frags, ck := s.packetize(name, data, s.spare.frags[:0])
	s.stamp(name, tag, syntax, len(data), ck, class, frags)

	retain := s.cfg.Policy == SenderBuffered
	if retain {
		s.retain(name, savedADU{wireLen: len(data), sentAt: s.sched.Now(), class: class}, frags)
		if s.cfg.ADUDeadline > 0 && !s.retire.Active() {
			s.retire.Reset(s.cfg.ADUDeadline)
		}
	}

	s.nextName++
	s.Stats.ADUs++
	s.m.aduBytes.Observe(int64(len(data)))
	s.Stats.ILPPassBytes += int64(len(data))
	s.cfg.Tracer.EmitTag(tracing.ADUSubmit, s.cfg.StreamID, name, tag, len(data))
	s.emitFrags(name, frags, false, retain)
	s.spare.frags = frags[:0]
	if s.send != nil && !s.hb.Active() {
		s.hb.Reset(s.cfg.HeartbeatInterval)
	}
	return name, nil
}

// packetize runs the single fused pass over data: each fragment's wire
// payload is sealed by the stream's cipher suite straight into a pooled
// buffer with HeaderSize headroom (and the suite's trailer behind it)
// while the plaintext checksum accumulates, and FEC parity — the XOR of
// the group's wire payloads, trailers excluded — accumulates word-wise
// into its own pooled buffer. Fragment offsets are 8-aligned, so the
// per-fragment partial sums add into the whole-ADU checksum. It appends
// to frags (data fragments interleaved with each group's parity, in
// emission order) and returns the list and the ADU checksum (zero for
// a suite without one). A tag the sender's chain still holds is written
// by the flush after the loop, so every trailer is final by stamp time.
func (s *Sender) packetize(name uint64, data []byte, frags []wireFrag) ([]wireFrag, uint16) {
	frag := s.cfg.fragPayload()
	ops, trailer := s.cfg.suite, s.cfg.suite.flags.Trailer()
	var (
		sum       uint64
		parity    *buf.Ref // XOR accumulator for the current group
		parityOff int      // group start offset
		parityLen int      // blob length (first, longest fragment of the group)
		inGroup   int      // data fragments accumulated
	)
	headroom := HeaderSize + len(s.cfg.encap)
	for off, last := 0, false; !last; {
		n := min(len(data)-off, frag)
		ref := s.cfg.Pool.GetHeadroom(n+trailer, headroom)
		w := ref.Bytes()
		sum += ops.seal(&s.cfg, s.crypto, name, off, len(data), w, data[off:off+n])
		frags = append(frags, wireFrag{ref: ref, off: off, n: n})
		if s.cfg.FECGroup > 0 {
			if inGroup == 0 {
				parityOff, parityLen = off, n
				parity = s.cfg.Pool.GetHeadroom(n+trailer, headroom)
				ilp.WordCopy(parity.Bytes()[:n], w[:n])
			} else {
				ilp.XORWords(parity.Bytes()[:parityLen], w[:n])
			}
			inGroup++
		}
		off += n
		last = off >= len(data)
		if inGroup > 0 && (inGroup == s.cfg.FECGroup || last) {
			if trailer > 0 {
				ops.sealParity(&s.cfg, name, parityOff, parity.Bytes(), parityLen)
			}
			frags = append(frags, wireFrag{ref: parity, off: parityOff, n: parityLen, parity: true})
			inGroup = 0
		}
	}
	s.crypto.flush()
	if !ops.aduCheck {
		return frags, 0
	}
	return frags, ilp.FinishSum(sum)
}

// stamp prepends and fills each fragment's header in place: the
// payload, already in its final position, never moves. Critical ADUs
// carry wire.FlagCritical so intermediate custody relays can apply the
// application's survival priority without decoding payloads.
func (s *Sender) stamp(name, tag uint64, syntax xcode.SyntaxID, totalLen int, ck uint16, class Priority, frags []wireFrag) {
	flags := s.cfg.suite.flags
	if class == Critical {
		flags |= wire.FlagCritical
	}
	h := wire.Header{
		Stream:   s.cfg.StreamID,
		Name:     name,
		Tag:      tag,
		Syntax:   syntax,
		TotalLen: totalLen,
		ADUCheck: ck,
	}
	for _, f := range frags {
		h.Flags = flags
		if f.parity {
			h.Flags |= wire.FlagParity
		}
		h.FragOff = f.off
		h.FragLen = f.n
		wire.PutHeader(f.ref.Prepend(HeaderSize), &h)
		if len(s.cfg.encap) > 0 {
			// The outer demux prefix, stamped once into the reserved
			// headroom; resends of retained fragments reuse it as-is.
			copy(f.ref.Prepend(len(s.cfg.encap)), s.cfg.encap)
		}
	}
}

// emitFrags (re)sends an ADU's stamped wire packets in order. With
// retain the caller keeps its counts (retention, ready for resend) and
// the network gets its own; otherwise ownership transfers outright.
func (s *Sender) emitFrags(name uint64, frags []wireFrag, isResend, retain bool) {
	lastData := -1
	if !isResend {
		for i := len(frags) - 1; i >= 0; i-- {
			if !frags[i].parity {
				lastData = i
				break
			}
		}
	}
	for i, f := range frags {
		markNext := uint64(0)
		if i == lastData {
			markNext = name + 1 // final fragment: the ADU is fully emitted
		}
		ref := f.ref
		if retain {
			ref = ref.Retain()
		}
		s.emit(ref, isResend, markNext, fragRef{name: name, off: f.off, n: f.n, parity: f.parity})
		switch {
		case f.parity:
			s.Stats.ParityFrags++
		case isResend:
			s.Stats.ResentFrags++
		default:
			s.Stats.Fragments++
			s.Stats.Bytes += int64(f.n)
		}
	}
}

// fragRef identifies the fragment inside an emitted packet for the
// tracer (the trace event fires when the packet actually reaches the
// wire, so a paced fragment records its pacer wait).
type fragRef struct {
	name   uint64
	off, n int
	parity bool
}

// deferred is a paced sendOut held for its time on a pooled event, in
// a record spares recycles.
type deferred struct {
	s        *Sender
	pkt      *buf.Ref
	kind     tracing.Kind
	ref      fragRef
	markNext uint64
	wait     sim.Duration
}

// later makes d's call on s at t.
func (s *Sender) later(t sim.Time, d deferred) {
	p := reuse(&s.spare.later)
	if p == nil {
		p = new(deferred)
	}
	*p = d
	p.s = s
	s.sched.AtCall(t, callDeferred, p)
}

func callDeferred(a any) {
	d := a.(*deferred)
	s := d.s
	s.sendOut(d.pkt, d.kind, d.ref, d.markNext, d.wait)
	*d = deferred{}
	s.spare.later = append(s.spare.later, d)
}

// sendOut is the one step by which a packet leaves the sender, now or
// at its paced time: the trace event (wait is the pacer's hold), the
// wire-byte count, the packet itself by reference — the count passes
// to SendRef — and the emitted-extent watermark the heartbeat declares.
func (s *Sender) sendOut(pkt *buf.Ref, kind tracing.Kind, ref fragRef, markNext uint64, wait sim.Duration) {
	s.cfg.Tracer.Emit(kind, s.cfg.StreamID, ref.name, int64(ref.off), ref.n, wait)
	s.Stats.WireBytes += int64(pkt.Len())
	_ = s.SendRef(pkt) // a refused packet is a loss, which recovery repairs
	if markNext > s.emittedNext {
		s.emittedNext = markNext
	}
}

// emit sends one packet now or at the paced time, consuming the
// caller's reference. Recovery traffic (priority) bypasses the pacer:
// a retransmission that queues behind the rest of a long paced stream
// re-creates exactly the head-of-line latency ALF exists to remove,
// and its volume is bounded by the receiver's NACK backoff.
func (s *Sender) emit(pkt *buf.Ref, priority bool, markNext uint64, ref fragRef) {
	kind := tracing.FragTX
	switch {
	case ref.parity:
		kind = tracing.ParityTX
	case priority:
		kind = tracing.FragRetx
	}
	if s.cfg.RateBps <= 0 || priority {
		s.sendOut(pkt, kind, ref, markNext, 0)
		return
	}
	tx := sim.Duration(float64(pkt.Len()*8) / s.cfg.RateBps * 1e9)
	at := max(s.sched.Now(), s.pacerFree)
	s.pacerFree = at.Add(tx)
	if at == s.sched.Now() {
		s.sendOut(pkt, kind, ref, markNext, 0)
		return
	}
	s.later(at, deferred{pkt: pkt, kind: kind, ref: ref, markNext: markNext, wait: at.Sub(s.sched.Now())})
}

// HandleControl processes a message from the receiver on the control
// channel: cumulative releases and per-ADU recovery requests (CTRL),
// or a delivery report (FB) for the rate-control loop. A frontier past
// NextName is dropped and counted in CtrlDropped.
func (s *Sender) HandleControl(pkt []byte) error {
	switch wire.TypeOf(pkt) {
	case wire.TypeFB:
		return s.handleFeedback(pkt)
	case wire.TypeCA:
		return s.handleCustody(pkt)
	}
	c, err := wire.ParseControl(pkt)
	if err != nil {
		s.Stats.CtrlDropped++
		return err
	}
	if c.Stream != s.cfg.StreamID {
		return ErrWrongStream
	}
	if c.Cum > s.nextName {
		// A frontier past every name this sender has spent: almost
		// certainly a corrupted header that survived the 16-bit check.
		// Trusted, it would release all retention and park the
		// heartbeat that detects tail loss.
		s.Stats.CtrlDropped++
		return fmt.Errorf("%w: CTRL frontier %d beyond next name %d", ErrBadHeader, c.Cum, s.nextName)
	}
	s.Stats.CtrlReceived++
	if c.Cum > s.lastCum {
		s.lastCum = c.Cum
		s.hbMisses = 0
	}
	if s.lastCum >= s.nextName {
		s.hb.Stop()
	}

	// Release everything settled at the receiver.
	for w := &s.buffered; w.n > 0 && w.base < c.Cum; {
		name := w.base
		s.unretain(w.at(name))
		s.Stats.Released++
		if s.OnRelease != nil {
			s.OnRelease(name)
		}
	}

	for _, name := range c.Nacks {
		s.resend(name)
	}
	return nil
}

// handleFeedback folds one receiver delivery report into the closed
// loop: dedupe by sequence, delta the cumulative counters into a
// RateSample, update the loss EWMA that drives shedding, and let the
// controller (if any) set the next pacing rate.
func (s *Sender) handleFeedback(pkt []byte) error {
	stream, seq, wire, good, err := wire.ParseFeedback(pkt)
	if err != nil {
		s.Stats.CtrlDropped++
		return err
	}
	if stream != s.cfg.StreamID {
		return ErrWrongStream
	}
	if seq <= s.fbSeq {
		// Reordered or duplicated report: a newer cumulative view was
		// already processed, so this one carries nothing.
		return nil
	}
	now := s.sched.Now()
	sent := s.Stats.WireBytes
	sample := RateSample{
		Interval:       now.Sub(s.fbAt),
		SentBytes:      sent - s.fbSent,
		RecvBytes:      int64(wire) - s.fbWire,
		DeliveredBytes: int64(good) - s.fbGood,
		Backlog:        s.backlog(now),
	}
	if sample.SentBytes > 0 {
		sample.LossFrac = min(max(1-float64(sample.RecvBytes)/float64(sample.SentBytes), 0), 1)
	}
	s.fbSeq, s.fbAt, s.fbWire, s.fbGood, s.fbSent = seq, now, int64(wire), int64(good), sent
	s.lossEWMA = 0.7*s.lossEWMA + 0.3*sample.LossFrac
	s.Stats.FeedbackRecv++
	if s.cfg.Controller != nil {
		next := s.cfg.Controller.OnFeedback(s.cfg.RateBps, sample)
		if next > 0 && next != s.cfg.RateBps {
			s.Stats.RateChanges++
			s.cfg.Tracer.Emit(tracing.RateChange, s.cfg.StreamID, 0, int64(s.cfg.RateBps), int(next), 0)
			s.cfg.RateBps = next
		}
	}
	return nil
}

// handleCustody processes a custody-ack frame from a downstream relay
// (Config.Custody): the relay holds complete copies of the named ADUs
// and has taken over recovery responsibility for them, so retention
// here ends. The heartbeat frontier is untouched — custody is not
// delivery, and the receiver's own cumulative acks still govern when
// the stream extent stops being declared.
func (s *Sender) handleCustody(pkt []byte) error {
	ca, err := wire.ParseCustody(pkt)
	if err != nil {
		s.Stats.CtrlDropped++
		return err
	}
	if ca.Stream != s.cfg.StreamID {
		return ErrWrongStream
	}
	if ca.Cum > s.nextName {
		// The same corruption defence as for a CTRL frontier.
		s.Stats.CtrlDropped++
		return fmt.Errorf("%w: custody frontier %d beyond next name %d", ErrBadHeader, ca.Cum, s.nextName)
	}
	if !s.cfg.Custody {
		// The application did not opt in; a custody ack must not
		// release anything.
		return nil
	}
	s.Stats.CustodyAcks++
	if ca.Cum > s.custodyCum {
		s.custodyCum = ca.Cum
		// The frontier subsumes every individually-tracked name
		// below it.
		for name := range s.custodyDone {
			if name < s.custodyCum {
				delete(s.custodyDone, name)
			}
		}
	}
	release := func(name uint64) {
		saved := s.retained(name)
		if saved == nil {
			return
		}
		s.unretain(saved)
		s.Stats.CustodyReleased++
		s.cfg.Tracer.Emit(tracing.CustodyRelease, s.cfg.StreamID, name, int64(ca.Relay), 0, 0)
		if s.OnRelease != nil {
			s.OnRelease(name)
		}
	}
	for w := &s.buffered; w.n > 0 && w.base < s.custodyCum; {
		release(w.base)
	}
	for _, name := range ca.Names {
		if name < s.custodyCum || name >= s.nextName {
			continue
		}
		release(name)
		if s.custodyDone == nil {
			s.custodyDone = make(map[uint64]struct{})
		}
		s.custodyDone[name] = struct{}{}
	}
	return nil
}

// inCustody reports whether a name's recovery responsibility has moved
// to a downstream custodian.
func (s *Sender) inCustody(name uint64) bool {
	if !s.cfg.Custody {
		return false
	}
	if name < s.custodyCum {
		return true
	}
	_, ok := s.custodyDone[name]
	return ok
}

// allowRecovery charges n wire bytes of retransmission against the
// recovery-bandwidth token bucket (RecoveryFrac x RateBps, one second
// of burst). During a loss episode this is what keeps recovery traffic
// from compounding the congestion that caused the loss. Critical ADUs
// always pass — they still debit the bucket, so their resends consume
// the budget Standard resends would have used — and a false return
// means the resend is withheld; the receiver's NACK backoff retries.
func (s *Sender) allowRecovery(n int, class Priority) bool {
	if s.cfg.RecoveryFrac <= 0 || s.cfg.RateBps <= 0 {
		return true
	}
	now := s.sched.Now()
	rate := s.cfg.RecoveryFrac * s.cfg.RateBps / 8 // bytes/s of budget
	burst := rate                                  // one second of headroom
	if !s.retxInit {
		s.retxTokens, s.retxInit = burst, true
	} else {
		s.retxTokens = min(s.retxTokens+now.Sub(s.retxLast).Seconds()*rate, burst)
	}
	s.retxLast = now
	if class != Critical && s.retxTokens < float64(n) {
		s.Stats.RetxSuppressed++
		return false
	}
	s.retxTokens -= float64(n)
	return true
}

// resend recovers one ADU according to the stream policy.
func (s *Sender) resend(name uint64) {
	if s.inCustody(name) {
		// A downstream relay holds the ADU and answers NACKs itself;
		// resending from here would duplicate its recovery traffic
		// across the slowest hops of the path.
		s.Stats.CustodyNacks++
		return
	}
	switch s.cfg.Policy {
	case SenderBuffered:
		saved := s.retained(name)
		if saved == nil {
			s.Stats.UnfilledNacks++
			return
		}
		wireLen := saved.wireLen + len(saved.frags)*(HeaderSize+s.cfg.suite.flags.Trailer())
		if !s.allowRecovery(wireLen, saved.class) {
			return
		}
		s.Stats.ResentADUs++
		// Zero-copy retransmit: the retained wire packets go out again
		// as-is (headers are identical on resend).
		s.emitFrags(name, saved.frags, true, true)
	case AppRecompute:
		if s.OnResend == nil || s.SendRef == nil { // the latter: nothing was ever sent
			s.Stats.UnfilledNacks++
			return
		}
		tag, syntax, data, ok := s.OnResend(name)
		if !ok {
			s.Stats.UnfilledNacks++
			return
		}
		if !s.allowRecovery(len(data)+HeaderSize, Standard) {
			return
		}
		s.Stats.RecomputeADUs++
		s.Stats.ILPPassBytes += int64(len(data))
		frags, ck := s.packetize(name, data, s.spare.frags[:0])
		s.stamp(name, tag, syntax, len(data), ck, Standard, frags)
		s.emitFrags(name, frags, true, false)
		s.spare.frags = frags[:0]
	case NoRetransmit:
		// Receivers on NoRetransmit streams do not NACK; ignore any
		// that arrive.
	}
}
