package alf

import (
	"fmt"

	"repro/internal/buf"
	"repro/internal/ilp"
	"repro/internal/sim"
	"repro/internal/tracing"
	"repro/internal/wire"
	"repro/internal/xcode"
)

// ReceiverStats counts receiver events.
type ReceiverStats struct {
	Fragments     int64 `metric:"fragments"` // valid fragments accepted
	FragmentBytes int64 `metric:"frag_bytes"`
	HeaderDrops   int64 `metric:"header_drops"` // fragments with corrupt/malformed headers
	DupFragments  int64 `metric:"dup_fragments"`
	LateFragments int64 `metric:"late_fragments"` // fragments for already-settled ADUs
	Inconsistent  int64 `metric:"inconsistent"`   // fragments contradicting earlier ones
	TooLarge      int64 `metric:"too_large"`      // ADUs beyond MaxADU
	ADUsDelivered int64 `metric:"adus_delivered"`
	ADUsLost      int64 `metric:"adus_lost"`      // given up and reported to the application
	OutOfOrder    int64 `metric:"out_of_order"`   // ADUs delivered while a lower name was unsettled
	ChecksumFails int64 `metric:"checksum_fails"` // complete ADUs whose checksum failed
	AuthFails     int64 `metric:"auth_fails"`     // fragments whose authentication tag failed
	NacksSent     int64 `metric:"nacks_sent"`     // recovery requests (ADU names, total)
	EarlyNacks    int64 `metric:"early_nacks"`    // first requests sent on evidence, before NackDelay
	CtrlSent      int64 `metric:"ctrl_sent"`      // control messages
	Heartbeats    int64 `metric:"heartbeats"`     // sender extent declarations processed
	ParityFrags   int64 `metric:"parity_frags"`   // FEC parity fragments accepted
	FECRecovered  int64 `metric:"fec_recovered"`  // data fragments rebuilt from parity
	ILPPassBytes  int64 `metric:"ilp_pass_bytes"` // payload bytes through the fused place/open/checksum pass (§4)

	// Closed-loop accounting (see ratecontrol.go).
	FeedbackSent   int64 `metric:"feedback_tx"`     // delivery reports emitted
	WireBytes      int64 `metric:"wire_bytes"`      // data-plane wire bytes accepted (dups included)
	DeliveredBytes int64 `metric:"delivered_bytes"` // verified ADU payload handed to the application
}

// partial is an ADU under reassembly. The struct (with its maps) and
// the pooled reassembly buffer are both recycled: the struct when the
// ADU settles, the buffer when the delivered ADU is Released (or
// immediately, on checksum failure or give-up).
type partial struct {
	tag      uint64
	syntax   xcode.SyntaxID
	check    uint16
	total    int
	ref      *buf.Ref // pooled reassembly buffer; buf aliases it
	buf      []byte
	got      map[int]int      // data fragment offset -> length (duplicate detection)
	parities map[int]*buf.Ref // FEC group start offset -> pooled parity payload
	gotBytes int
	sum      uint64 // accumulated plaintext partial checksum
	untimed  bool   // a resend's round trip was sampled, or an earlier request makes any sample ambiguous
}

// slot is everything the receiver knows about one name at or above the
// settled frontier: a wholly unseen gap (p nil — detected via the
// sequential name-space), an ADU under reassembly, or one settled ahead
// of the frontier and waiting for it. Recovery state is the same three
// fields whichever it is.
type slot struct {
	p        *partial
	since    sim.Time // when the gap was noticed, or the first fragment seen
	lastNack sim.Time
	nacks    int32
	settled  bool
}

// spares is what the endpoints on one scheduler recycle and borrow, none
// of it held past the call or ADU using it: a shard's flows share one,
// so a warm shard's new flow allocates nothing; a lone endpoint has its own.
type spares struct {
	parts []*partial  // settled reassembly structs, maps kept
	rings [][]slot    // receive windows left empty
	nacks []uint64    // onScan's NACK list
	frags []wireFrag  // the sender's packetization worklist
	later []*deferred // the sender's fired deferred-call records
	frame []byte      // the last control frame sent; every send copies it
}

// reuse takes the most recently freed entry of a free list, or the
// zero value when the list is empty.
func reuse[T any](free *[]T) (t T) {
	if n := len(*free); n > 0 {
		t, *free = (*free)[n-1], (*free)[:n-1]
	}
	return t
}

// control empties the frame buffer and starts it with the stream's
// encap prefix (a sharded flow's label), for a wire encoder to append a
// control frame to.
func (sp *spares) control(c *Config) []byte { return append(sp.frame[:0], c.encap...) }

// nackDue applies exponential backoff to recovery requests: the n-th
// NACK for an ADU waits NackDelay<<min(n,5) after the previous one, so
// a congested path is not hammered with duplicate requests.
func nackDue(now sim.Time, first, last sim.Time, nacks int, delay sim.Duration) bool {
	if nacks == 0 {
		return now.Sub(first) >= delay
	}
	shift := min(nacks, 5)
	// Saturating shift: at DTN parameters NackDelay is minutes, and
	// minutes<<5 is fine — but nothing stops an application configuring
	// a delay near the int64 horizon, and a wrapped-negative backoff
	// would NACK on every scan forever.
	backoff := delay << uint(shift)
	if backoff>>uint(shift) != delay {
		return false // overflowed: the backed-off delay is effectively never
	}
	return now.Sub(last) >= backoff
}

// Receiver is the receiving half of an ALF stream. Complete ADUs are
// delivered out of order as they finish; unrecoverable ones are
// reported in ADU terms.
type Receiver struct {
	cfg   Config
	sched *sim.Scheduler
	send  func([]byte) error // control channel back to the sender

	// OnADU receives each complete ADU the moment it completes —
	// possibly out of order. Ownership of ADU.Data transfers.
	OnADU func(ADU)
	// OnLost is told when an ADU is abandoned (NoRetransmit policy, or
	// recovery exhausted). The application decides what that means.
	OnLost func(name uint64)

	// names holds one slot per name from the settled frontier (its base
	// is cum) to the highest name observed; pending and missing count
	// its slots under reassembly and its gaps.
	names   window[slot]
	pending int
	missing int
	spare   *spares // its shard's, for a sharded flow
	cum     uint64  // every name < cum is settled
	lastCum uint64  // last cum value reported to the sender

	scan *sim.Timer

	// Feedback: the periodic delivery report for the sender's rate loop,
	// its timer nil without a FeedbackInterval. The timer runs only
	// while the stream is active — bytes arriving or recovery pending —
	// so an idle stream goes fully quiescent.
	fb         *sim.Timer
	fbSeq      uint32
	lastFBWire int64

	m recvMetrics

	Stats ReceiverStats

	// crypto holds the tag keys and heads of the last run of fragments
	// opened and the MAC that opens them (suiteOps.chained); nil under a
	// suite without a tag. Last, so that no field a cleartext stream
	// touches moves for it.
	crypto *openState
	// repair estimates the NACK-to-resend round trip; nil until one is
	// measured, so a stream that never loses anything carries none.
	repair *sim.RTT
}

// NewReceiver creates the receiving end of a stream. send transmits
// control messages back toward the sender (may be nil for one-way
// simulations; recovery then never happens).
func NewReceiver(sched *sim.Scheduler, send func([]byte) error, cfg Config) (*Receiver, error) {
	r := new(Receiver)
	if err := r.init(sched, send, cfg, new(sim.Timer), new(spares)); err != nil {
		return nil, err
	}
	return r, nil
}

// init is NewReceiver in place on a zero Receiver, given its scan timer
// and spares (a sharded flow's are in its slab slot and its shard).
func (r *Receiver) init(sched *sim.Scheduler, send func([]byte) error, cfg Config, scan *sim.Timer, sp *spares) error {
	if err := cfg.prepare(); err != nil {
		return err
	}
	r.cfg, r.sched, r.send, r.scan, r.spare = cfg, sched, send, scan, sp
	if cfg.suite.chained && r.crypto == nil {
		r.crypto = new(openState)
	}
	sched.InitTimer(scan, onScan, r)
	if cfg.FeedbackInterval > 0 {
		r.fb = new(sim.Timer)
		sched.InitTimer(r.fb, onFeedback, r)
	}
	r.m = bindReceiverMetrics(cfg.Metrics, r)
	return nil
}

// Settled returns the name below which every ADU is settled (delivered
// or reported lost).
func (r *Receiver) Settled() uint64 { return r.cum }

// Pending returns the number of ADUs currently under reassembly.
func (r *Receiver) Pending() int { return r.pending }

// Missing returns the number of wholly-unseen ADU names currently
// tracked as gaps. Together with Pending it bounds the receiver's
// recovery state; soak tests assert both return to zero after faults
// heal.
func (r *Receiver) Missing() int { return r.missing }

// HandlePacket processes one arriving wire packet (DATA fragment or
// heartbeat; CTRL is ignored here — control flows to the Sender).
func (r *Receiver) HandlePacket(pkt []byte) error {
	if wire.TypeOf(pkt) == wire.TypeHB {
		return r.handleHeartbeat(pkt)
	}
	h, err := wire.ParseHeader(pkt)
	if err != nil {
		r.Stats.HeaderDrops++
		return err
	}
	if h.Stream != r.cfg.StreamID {
		return ErrWrongStream
	}
	ops := r.cfg.suite
	if h.Flags&wire.SuiteMask != ops.flags {
		// Suites must agree end to end, and it is this end's configured
		// suite that opens the payload, never the one the packet claims:
		// a cleartext fragment arriving on an enciphered stream is
		// unauthenticated input, and a fragment of another suite cannot
		// be opened at all.
		r.Stats.HeaderDrops++
		return fmt.Errorf("%w: cipher-suite flag mismatch", ErrBadHeader)
	}
	// Count the wire volume before the late/duplicate filters: the
	// feedback loop measures what the network delivered, and a duplicate
	// did cross the path. Corrupt packets are excluded — corruption is
	// loss from the loop's point of view. A configured encap prefix was
	// stripped by the outer demux before this call; add it back so the
	// count matches the sender's WireBytes and the loop's loss fraction
	// is not skewed by phantom missing bytes.
	r.Stats.WireBytes += int64(len(pkt) + len(r.cfg.encap))
	r.armFeedback()
	sl := r.names.at(h.Name)
	if h.Name < r.cum || (sl != nil && sl.settled) {
		r.Stats.LateFragments++
		return nil
	}
	if h.Name >= r.cum+nameWindow {
		// A name implausibly far ahead of the settled frontier: almost
		// certainly a corrupted header that survived the 16-bit check.
		r.Stats.HeaderDrops++
		return fmt.Errorf("%w: name %d beyond window (settled %d)", ErrBadHeader, h.Name, r.cum)
	}
	if h.TotalLen > r.cfg.MaxADU {
		r.Stats.TooLarge++
		return ErrADUTooLarge
	}

	if sl == nil {
		r.noteGapsUpTo(h.Name + 1)
		sl = r.names.at(h.Name)
	}
	p := sl.p
	if p == nil {
		// The first fragment ends the name's time as a gap, and its
		// recovery starts over from now.
		p = r.getPartial(&h)
		p.untimed = sl.nacks > 0 // a resend of a gap's earlier requests may still be on its way
		*sl = slot{p: p, since: r.sched.Now()}
		r.missing--
		r.pending++
		r.armScan()
	} else if p.total != h.TotalLen || p.tag != h.Tag || p.check != h.ADUCheck {
		r.Stats.Inconsistent++
		return ErrInconsistent
	}
	payload := pkt[HeaderSize : HeaderSize+h.FragLen]
	tag := pkt[HeaderSize+h.FragLen : HeaderSize+h.FragLen+h.Flags.Trailer()]

	if h.Flags&wire.FlagParity != 0 {
		if len(tag) > 0 && !ops.openParity(&r.cfg, h.Name, h.FragOff, payload, tag) {
			r.Stats.AuthFails++
			return ErrAuthFail
		}
		r.handleParity(&h, p, payload)
		if p.gotBytes >= p.total {
			r.complete(h.Name, sl)
		}
		return nil
	}

	if _, dup := p.got[h.FragOff]; dup {
		r.Stats.DupFragments++
		// Karn's rule: only an ADU requested once times its repair, and
		// only by a duplicate, which cannot be an original still in
		// flight. A forged one must not shorten the timer.
		if sl.nacks == 1 && !p.untimed && r.authentic(h.Name, p, h.FragOff, payload, tag) {
			p.untimed = true
			if r.repair == nil {
				r.repair = new(sim.RTT)
			}
			r.repair.Sample(r.sched.Now().Sub(sl.lastNack), 0, r.cfg.NackDelay)
		}
		return nil
	}
	if !r.place(h.Name, p, h.FragOff, payload, tag) {
		// A fragment that fails authentication is a lost fragment: its
		// range stays unaccounted (the plaintext bytes written into the
		// reassembly buffer are dead until a verified copy overwrites
		// them) and recovery re-requests the ADU.
		r.Stats.AuthFails++
		return ErrAuthFail
	}
	r.Stats.Fragments++
	r.Stats.FragmentBytes += int64(h.FragLen)
	r.cfg.Tracer.Emit(tracing.FragRX, r.cfg.StreamID, h.Name, int64(h.FragOff), h.FragLen, 0)

	// A newly placed fragment may make an FEC group reconstructible
	// (all-but-one present, parity held).
	if len(p.parities) > 0 {
		r.tryReconstruct(h.Name, p, r.groupStart(h.FragOff))
	}
	if p.gotBytes >= p.total {
		r.complete(h.Name, sl)
	}
	return nil
}

// getPartial returns reassembly state for a new ADU: a recycled struct
// (maps cleared on recycle) around a pooled buffer sized to the ADU.
func (r *Receiver) getPartial(h *wire.Header) *partial {
	p := reuse(&r.spare.parts)
	if p == nil {
		p = &partial{got: make(map[int]int)}
	}
	ref := r.cfg.Pool.Get(h.TotalLen)
	*p = partial{
		tag:      h.Tag,
		syntax:   h.Syntax,
		check:    h.ADUCheck,
		total:    h.TotalLen,
		ref:      ref,
		buf:      ref.Bytes(),
		got:      p.got,
		parities: p.parities,
	}
	return p
}

// putPartial recycles a settled ADU's reassembly struct. The caller
// has already released or handed off p.ref; held parity buffers are
// returned to the pool here.
func (r *Receiver) putPartial(p *partial) {
	clear(p.got)
	for off, parity := range p.parities {
		parity.Release()
		delete(p.parities, off)
	}
	p.ref, p.buf = nil, nil
	r.spare.parts = append(r.spare.parts, p)
}

// place runs the stage-one single data pass: the stream's cipher
// suite places the fragment (or a reconstructed one, tag nil) in the
// reassembly buffer, deciphers it, and extends the ADU checksum or
// verifies the fragment's tag — fused (§6). The range is accounted as
// received only when that succeeds.
func (r *Receiver) place(name uint64, p *partial, off int, payload, tag []byte) bool {
	sum, ok := r.cfg.suite.open(&r.cfg, r.crypto, name, off, p.total, p.buf[off:off+len(payload)], payload, tag)
	if !ok {
		return false
	}
	p.sum += sum
	p.got[off] = len(payload)
	p.gotBytes += len(payload)
	r.Stats.ILPPassBytes += int64(len(payload))
	return true
}

// authentic reports whether a duplicate fragment's tag verifies. It
// opens into a scratch buffer: the verified copy already placed stays
// as it is.
func (r *Receiver) authentic(name uint64, p *partial, off int, payload, tag []byte) bool {
	if len(tag) == 0 {
		return true
	}
	scratch := r.cfg.Pool.Get(len(payload))
	_, ok := r.cfg.suite.open(&r.cfg, r.crypto, name, off, p.total, scratch.Bytes(), payload, tag)
	scratch.Release()
	return ok
}

// groupStart returns the FEC group start offset for a fragment offset.
func (r *Receiver) groupStart(off int) int {
	group := r.cfg.FECGroup * r.cfg.fragPayload()
	if group <= 0 {
		return 0
	}
	return off / group * group
}

// handleParity stores an FEC parity fragment (in a pooled buffer) and
// attempts recovery.
func (r *Receiver) handleParity(h *wire.Header, p *partial, payload []byte) {
	if p.parities == nil {
		p.parities = make(map[int]*buf.Ref)
	}
	if _, dup := p.parities[h.FragOff]; dup {
		r.Stats.DupFragments++
		return
	}
	pr := r.cfg.Pool.Get(len(payload))
	copy(pr.Bytes(), payload)
	p.parities[h.FragOff] = pr
	r.Stats.ParityFrags++
	r.cfg.Tracer.Emit(tracing.ParityRX, r.cfg.StreamID, h.Name, int64(h.FragOff), h.FragLen, 0)
	r.tryReconstruct(h.Name, p, h.FragOff)
}

// tryReconstruct rebuilds the single missing data fragment of the FEC
// group starting at gs, if its parity is held and exactly one fragment
// is absent. Reconstruction recovers the wire (enciphered) bytes, so
// the rebuilt fragment flows through the same fused stage-one pass.
func (r *Receiver) tryReconstruct(name uint64, p *partial, gs int) {
	parity, ok := p.parities[gs]
	if !ok || r.cfg.FECGroup <= 0 {
		return
	}
	fp := r.cfg.fragPayload()
	missingOff := -1
	for off := gs; off < p.total && off < gs+r.cfg.FECGroup*fp; off += fp {
		if _, have := p.got[off]; !have {
			if missingOff >= 0 {
				return // two or more missing: XOR parity cannot help
			}
			missingOff = off
		}
	}
	if missingOff < 0 {
		return // group complete; parity unneeded
	}
	missingLen := min(p.total-missingOff, fp)
	if missingLen > parity.Len() {
		// A malformed parity shorter than the fragment it must rebuild.
		r.Stats.Inconsistent++
		return
	}
	// recon = parity XOR (wire bytes of every present fragment in the
	// group), accumulated word-wise. p.buf holds plaintext, so fold the
	// suite's keystream for each present fragment's positions back in
	// after its XOR — the same bytes as re-enciphering the fragment
	// first, without a scratch copy. Recovery-path cost only; the pooled
	// accumulator goes straight back after placement.
	recon := r.cfg.Pool.Get(parity.Len())
	rb := recon.Bytes()
	ilp.WordCopy(rb, parity.Bytes())
	for off := gs; off < p.total && off < gs+r.cfg.FECGroup*fp; off += fp {
		n, have := p.got[off]
		if !have {
			continue
		}
		ilp.XORWords(rb, p.buf[off:off+n])
		r.cfg.suite.rekey(&r.cfg, name, off, rb[:n])
	}
	r.Stats.FECRecovered++
	r.place(name, p, missingOff, rb[:missingLen], nil)
	recon.Release()
}

// handleHeartbeat learns the declared stream extent: names below next
// that we have no state for are missing (this is how wholesale tail
// loss becomes visible), and the sender is answered with the current
// settle frontier so it can release retention even when earlier control
// messages were lost.
func (r *Receiver) handleHeartbeat(pkt []byte) error {
	stream, next, err := wire.ParseHeartbeat(pkt)
	if err != nil {
		r.Stats.HeaderDrops++
		return err
	}
	if stream != r.cfg.StreamID {
		return ErrWrongStream
	}
	r.Stats.Heartbeats++
	r.armFeedback()
	if next > r.cum+nameWindow {
		// Same corruption defence as for data fragments: never let a
		// declared extent open an implausible gap.
		r.Stats.HeaderDrops++
		return fmt.Errorf("%w: heartbeat extent %d beyond window (settled %d)", ErrBadHeader, next, r.cum)
	}
	r.noteGapsUpTo(next)
	if r.send != nil {
		r.Stats.CtrlSent++
		r.lastCum = r.cum
		r.spare.frame = wire.EncodeControl(r.spare.control(&r.cfg), &wire.Control{Stream: r.cfg.StreamID, Cum: r.cum})
		_ = r.send(r.spare.frame)
	}
	return nil
}

// noteGapsUpTo extends the table to every name below end, recording the
// new ones as wholly missing (sequential name-space: everything between
// the old highest name and a new one must be in flight or lost).
func (r *Receiver) noteGapsUpTo(end uint64) {
	start := r.cum + uint64(r.names.n)
	if end > start {
		if r.names.n == 0 {
			r.names.ring = reuse(&r.spare.rings) // one another window left
			r.names.extend(r.cum)                // an empty window restarts where it is told to
		}
		r.names.extend(end - 1)
		now := r.sched.Now()
		for n := start; n < end; n++ {
			*r.names.at(n) = slot{since: now}
		}
		r.missing += int(end - start)
		// Names below the newest were just proved lost: with a measured
		// repair round trip under NackDelay, scan that soon.
		if rp := r.repair; rp != nil && rp.RTO < r.cfg.NackDelay && r.missing+r.pending > 1 {
			if at, ok := r.scan.When(); !ok || at > now.Add(rp.RTO) {
				r.scan.Reset(rp.RTO)
			}
		}
	}
	if end > start || r.missing > 0 {
		r.armScan()
	}
}

// complete finishes stage two for one ADU: verify and deliver. The
// reassembly buffer's reference passes to the delivered ADU (released
// at once when no one is listening); the partial struct is recycled
// either way.
func (r *Receiver) complete(name uint64, sl *slot) {
	p := sl.p
	// A suite without an ADU checksum settled integrity per fragment, by
	// its tags; there is nothing to fold.
	if r.cfg.suite.aduCheck && ilp.FinishSum(p.sum) != p.check {
		// A damaged ADU is a lost ADU (§5): discard it whole and let
		// recovery request it again.
		r.Stats.ChecksumFails++
		r.cfg.Tracer.Emit(tracing.ChecksumFail, r.cfg.StreamID, name, 0, 0, 0)
		sl.p, sl.since, sl.lastNack = nil, r.sched.Now(), 0 // a gap again; its NACK count stands
		r.pending--
		r.missing++
		r.armScan()
		p.ref.Release()
		r.putPartial(p)
		return
	}
	if name > r.cum {
		r.Stats.OutOfOrder++
	}
	r.m.aduLatency.ObserveDuration(r.sched.Now().Sub(sl.since))
	r.settle(sl)
	r.Stats.ADUsDelivered++
	r.Stats.DeliveredBytes += int64(p.total)
	r.m.aduBytes.Observe(int64(p.total))
	r.cfg.Tracer.Emit(tracing.ADUDeliver, r.cfg.StreamID, name, 0, p.total, 0)
	adu := ADU{Name: name, Tag: p.tag, Syntax: p.syntax, Data: p.buf, ref: p.ref}
	r.putPartial(p)
	if r.OnADU != nil {
		r.OnADU(adu)
	} else {
		adu.Release()
	}
}

// settle marks a name resolved, whether it was a gap or under
// reassembly (the caller disposes of the partial), and advances the
// cumulative frontier over every settled name at the table's base.
func (r *Receiver) settle(sl *slot) {
	if sl.p != nil {
		r.pending--
	} else {
		r.missing--
	}
	sl.p, sl.settled = nil, true
	for b := r.names.at(r.cum); b != nil && b.settled; b = r.names.at(r.cum) {
		r.names.shift()
		r.cum++
	}
	if r.names.n == 0 {
		r.spare.rings = append(r.spare.rings, r.names.ring)
		r.names.ring = nil
	}
}

// armFeedback ensures the periodic delivery report is running (when
// the stream has one configured and a control channel to carry it).
func (r *Receiver) armFeedback() {
	if r.cfg.FeedbackInterval > 0 && r.send != nil && !r.fb.Active() {
		r.fb.Reset(r.cfg.FeedbackInterval)
	}
}

// onFeedback, the feedback timer's call (its argument the receiver),
// emits one delivery report (internal/wire: cumulative counters,
// robust to report loss) and re-arms while the stream stays active.
// A report also goes out when nothing arrived but recovery state is
// pending — the sender then sees a zero-delivery interval, which is
// exactly what a congestion-collapsed path looks like and what a
// controller must react to. When arrivals stop and nothing is pending
// the timer stops, so an idle stream schedules no work; the next
// arrival re-arms it.
func onFeedback(arg any) {
	r := arg.(*Receiver)
	changed := r.Stats.WireBytes != r.lastFBWire
	active := r.pending > 0 || r.missing > 0
	if !changed && !active {
		return
	}
	r.lastFBWire = r.Stats.WireBytes
	r.fbSeq++
	r.Stats.FeedbackSent++
	r.cfg.Tracer.Emit(tracing.FeedbackTX, r.cfg.StreamID, uint64(r.fbSeq), r.Stats.WireBytes, 0, 0)
	r.spare.frame = wire.EncodeFeedback(r.spare.control(&r.cfg), r.cfg.StreamID, r.fbSeq, uint64(r.Stats.WireBytes), uint64(r.Stats.DeliveredBytes))
	_ = r.send(r.spare.frame)
	r.fb.Reset(r.cfg.FeedbackInterval)
}

// armScan ensures the periodic gap scan is running.
func (r *Receiver) armScan() {
	if !r.scan.Active() {
		r.scan.Reset(r.cfg.NackInterval)
	}
}

// evidenceDue returns when the first NACK for name falls due before
// NackDelay: one repair round trip after later traffic proved the name
// lost, and no sooner than NackDelay/2, below which the estimate times
// the hosts' scheduling rather than the path. A gap is proof from the
// moment it is noticed. An ADU under reassembly is proved incomplete by
// the next name's first fragment, since an ADU's fragments leave as one
// train and trains leave in name order. ok is false without a measured
// round trip or such proof, or once the name has been requested.
func (r *Receiver) evidenceDue(name uint64, sl *slot) (due sim.Time, ok bool) {
	if sl.nacks != 0 || r.repair == nil {
		return 0, false
	}
	proof := sl.since
	if sl.p != nil {
		next := r.names.at(name + 1)
		if next == nil || next.since < sl.since {
			return 0, false
		}
		proof = next.since
	}
	due = max(proof.Add(r.repair.RTO), sl.since.Add(r.cfg.NackDelay/2))
	return due, due < sl.since.Add(r.cfg.NackDelay)
}

// unanswered reports whether a name's first request, sent early on
// evidence, has gone one repair round trip without a duplicate back:
// the estimate is too small, as when an RTO fires in OTP.
func (r *Receiver) unanswered(now sim.Time, sl *slot) bool {
	return r.repair != nil && sl.nacks == 1 && (sl.p == nil || !sl.p.untimed) &&
		sl.since <= sl.lastNack && sl.lastNack < sl.since.Add(r.cfg.NackDelay) &&
		now.Sub(sl.lastNack) >= r.repair.RTO
}

// onScan, the scan timer's call, is the receiver's recovery pass: NACK
// overdue gaps, abandon hopeless ADUs, and refresh the sender's release
// frontier. It runs every NackInterval, and sooner when evidence is due.
func onScan(arg any) {
	r := arg.(*Receiver)
	now := r.sched.Now()
	nacks := r.spare.nacks[:0]
	wake := now.Add(r.cfg.NackInterval)
	backedOff := false

	// The table is walked in ascending name order: which names fit under
	// wire.MaxNames and the order recovery requests reach the sender
	// both feed back into the simulation (and the shared network RNG
	// draw sequence). Oldest names first is also the useful priority —
	// they gate the settle frontier.
	for name, end := r.cum, r.cum+uint64(r.names.n); name < end; name++ {
		sl := r.names.at(name)
		if sl == nil || sl.settled {
			continue // settled ahead, or a give-up below carried the frontier past it
		}
		if !backedOff && r.unanswered(now, sl) {
			r.repair.Backoff(r.cfg.NackDelay) // once a scan, before any name is timed from it
			backedOff = true
		}
		due, evidenced := r.evidenceDue(name, sl)
		switch {
		case r.cfg.Policy == NoRetransmit || int(sl.nacks) >= r.cfg.MaxNacks:
			if now.Sub(sl.since) >= r.cfg.HoldTime {
				if p := sl.p; p != nil {
					p.ref.Release()
					r.putPartial(p)
				}
				r.Stats.ADUsLost++
				r.settle(sl)
				r.cfg.Tracer.Emit(tracing.ADULoss, r.cfg.StreamID, name, 0, 0, 0)
				if r.OnLost != nil {
					r.OnLost(name)
				}
			}
		case nackDue(now, sl.since, sl.lastNack, int(sl.nacks), r.cfg.NackDelay) || evidenced && now >= due:
			if len(nacks) < wire.MaxNames {
				if sl.nacks == 0 && now.Sub(sl.since) < r.cfg.NackDelay {
					r.Stats.EarlyNacks++
				}
				nacks = append(nacks, name)
				sl.nacks++
				sl.lastNack = now
			}
		case evidenced:
			wake = min(wake, due)
		}
	}
	r.spare.nacks = nacks[:0]

	if r.cfg.Policy == NoRetransmit {
		nacks = nil
	}
	if r.send != nil && (len(nacks) > 0 || r.cum != r.lastCum) {
		r.Stats.CtrlSent++
		r.Stats.NacksSent += int64(len(nacks))
		r.lastCum = r.cum
		for _, name := range nacks {
			r.cfg.Tracer.Emit(tracing.NackTX, r.cfg.StreamID, name, 0, 0, 0)
		}
		r.spare.frame = wire.EncodeControl(r.spare.control(&r.cfg), &wire.Control{Stream: r.cfg.StreamID, Cum: r.cum, Nacks: nacks})
		_ = r.send(r.spare.frame)
	}

	if r.pending > 0 || r.missing > 0 || r.cum != r.lastCum {
		r.scan.Reset(wake.Sub(now))
	}
}
