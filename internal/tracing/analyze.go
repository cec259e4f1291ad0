package tracing

import (
	"sort"

	"repro/internal/sim"
	"repro/internal/wire"
)

// Unset marks a timestamp that never happened (e.g. FirstRX of an ADU
// whose every fragment was lost).
const Unset = sim.Time(-1)

// Attribution breaks one ADU's (or message's) end-to-end latency into
// named phases.
//
// The wall-clock phases SenderPace + NetTransit + RetransmitWait +
// Reassembly + HOLStall sum to Total for a delivered unit: SenderPace
// is submit → first transmission (pacing and window wait), NetTransit
// first transmission → first arrival (under OTP, measured from the
// last copy sent before that arrival, so a lost first copy does not
// inflate it), RetransmitWait the merged intervals spent waiting for
// recovery (NACK → answering arrival under ALF; under OTP first
// transmission → that last copy, plus first arrival → all bytes
// arrived), Reassembly the
// remaining receive-side time, and HOLStall — OTP only, structurally
// zero under ALF — the time all bytes sat fully arrived but
// undeliverable behind an ordering gap (delivered − ready; the
// per-unit form of the otp.hol_stall_ns aggregate, the paper's §5
// in-order delivery cost).
//
// Queueing, Serialization, and Propagation are per-packet state sums
// over every hop and copy (retransmissions included), so they overlap
// each other and the wall-clock phases and can legitimately exceed
// Total when fragments traverse the network in parallel.
type Attribution struct {
	SenderPace     sim.Duration
	NetTransit     sim.Duration
	RetransmitWait sim.Duration
	Reassembly     sim.Duration
	HOLStall       sim.Duration

	Queueing      sim.Duration
	Serialization sim.Duration
	Propagation   sim.Duration

	Total sim.Duration
}

// ADUTrace is the reconstructed lifecycle of one ALF ADU.
type ADUTrace struct {
	Stream byte
	Name   uint64
	Tag    uint64
	Size   int

	Submitted sim.Time
	FirstTX   sim.Time
	FirstRX   sim.Time
	Settled   sim.Time // time of the outcome event (Unset while pending)

	// Outcome is "delivered", "lost" (receiver gave up), "expired"
	// (sender shed retention), or "pending".
	Outcome string

	Frags         int // data fragment transmissions, first copies
	Retx          int // data fragment retransmissions
	Parity        int // FEC parity fragments sent
	Nacks         int // recovery requests the receiver issued
	Drops         int // sniffed network drops of this ADU's fragments
	ChecksumFails int

	Events []Event // this ADU's events, in recorded order
	Attr   Attribution
}

// MsgTrace is the reconstructed lifecycle of one OTP message (one
// Conn.Send call), the ordered-transport counterpart of an ADU.
type MsgTrace struct {
	Conn  byte
	Index uint64
	Off   int64 // stream offset of the first byte
	End   int64 // offset past the last byte

	Submitted sim.Time
	FirstTX   sim.Time
	FirstRX   sim.Time // earliest arrival of any of its bytes
	Ready     sim.Time // all bytes arrived at the receiver
	Delivered sim.Time // in-order delivery reached End

	Outcome string // "delivered" or "pending"

	Retx  int // retransmissions overlapping this message
	Drops int // sniffed network drops overlapping this message

	Attr Attribution
}

// FaultSpan is one fault-injection window.
type FaultSpan struct {
	Kind  string
	Flow  uint64
	Begin sim.Time
	End   sim.Time // Unset if still open at trace end
}

// StallSpan is one OTP head-of-line stall interval.
type StallSpan struct {
	Conn  byte
	Begin sim.Time
	End   sim.Time // Unset if still open at trace end
	Flow  uint64   // causal link to the drop that opened it, if sniffed
}

// Report is the analysis of one recorded trace.
type Report struct {
	ADUs   []*ADUTrace // sorted by (stream, name)
	Msgs   []*MsgTrace // sorted by (conn, index)
	Faults []FaultSpan
	Stalls []StallSpan

	// Drops tallies sniffed network drops by cause.
	Drops map[string]int

	// End is the timestamp of the last recorded event.
	End sim.Time
}

// ADU finds the trace of one ADU, or nil.
func (r *Report) ADU(stream byte, name uint64) *ADUTrace {
	for _, a := range r.ADUs {
		if a.Stream == stream && a.Name == name {
			return a
		}
	}
	return nil
}

type aduKey struct {
	stream byte
	name   uint64
}

// span is a half-open time or byte interval used during reconstruction.
type span struct {
	from, to int64
}

// mergeSpans coalesces overlapping intervals and returns the summed
// length of the union.
func mergeSpans(spans []span) int64 {
	if len(spans) == 0 {
		return 0
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].from < spans[j].from })
	var total int64
	cur := spans[0]
	for _, s := range spans[1:] {
		if s.from <= cur.to {
			cur.to = max(cur.to, s.to)
			continue
		}
		total += cur.to - cur.from
		cur = s
	}
	return total + cur.to - cur.from
}

// arrival is one receiver-side byte-range arrival.
type arrival struct {
	at       sim.Time
	off, end int64
}

// coverageTime returns the earliest time at which arrivals (in time
// order) fully cover [off, end), or Unset if they never do. Also
// returns the earliest arrival overlapping the range.
func coverageTime(arrivals []arrival, off, end int64) (ready, first sim.Time) {
	ready, first = Unset, Unset
	var covered []span
	var have int64
	want := end - off
	for _, a := range arrivals {
		lo, hi := max(a.off, off), min(a.end, end)
		if lo >= hi {
			continue
		}
		if first == Unset {
			first = a.at
		}
		covered = append(covered, span{lo, hi})
		if have = mergeSpans(append([]span(nil), covered...)); have >= want {
			return a.at, first
		}
	}
	return Unset, first
}

// Analyze reconstructs per-ADU and per-message lifecycles, causal
// spans, and latency attribution from the recorded events. A nil
// tracer yields an empty report.
func (t *Tracer) Analyze() *Report {
	r := &Report{Drops: make(map[string]int)}
	if t == nil || len(t.events) == 0 {
		return r
	}
	events := t.events
	r.End = events[len(events)-1].At

	adus := make(map[aduKey]*ADUTrace)
	getADU := func(stream byte, name uint64) *ADUTrace {
		k := aduKey{stream, name}
		a := adus[k]
		if a == nil {
			a = &ADUTrace{Stream: stream, Name: name, Outcome: "pending",
				Submitted: Unset, FirstTX: Unset, FirstRX: Unset, Settled: Unset}
			adus[k] = a
		}
		return a
	}

	type connState struct {
		msgs     []*MsgTrace
		arrivals []arrival
		delivers []Event // SegDeliver events in order
		txs      []Event // SegTX / SegRetx
		drops    []Event // sniffed otp-data drops
		stall    int     // index into r.Stalls of the open stall, -1 if none
	}
	conns := make(map[byte]*connState)
	getConn := func(id byte) *connState {
		c := conns[id]
		if c == nil {
			c = &connState{stall: -1}
			conns[id] = c
		}
		return c
	}

	// nackWait accumulates, per ADU, the open recovery intervals:
	// a NackTX opens one; the arrival carrying its flow closes it.
	type openNack struct {
		at   sim.Time
		flow uint64
	}
	nackOpen := make(map[aduKey][]openNack)
	nackSpans := make(map[aduKey][]span)

	openFaults := make(map[uint64]int) // flow -> index into r.Faults

	for _, e := range events {
		var a *ADUTrace // set by an event that belongs to one ALF ADU
		switch e.Kind {
		case ADUSubmit:
			a = getADU(e.ID, e.ADU)
			a.Submitted = e.At
			a.Size = e.Len
			a.Tag = e.Tag
		case FragTX, FragRetx, ParityTX:
			a = getADU(e.ID, e.ADU)
			if a.FirstTX == Unset {
				a.FirstTX = e.At
			}
			switch e.Kind {
			case FragTX:
				a.Frags++
			case FragRetx:
				a.Retx++
			case ParityTX:
				a.Parity++
			}
		case FragRX, ParityRX:
			a = getADU(e.ID, e.ADU)
			if a.FirstRX == Unset {
				a.FirstRX = e.At
			}
			if e.Flow != 0 {
				k := aduKey{e.ID, e.ADU}
				open := nackOpen[k]
				for i, o := range open {
					if o.flow == e.Flow {
						nackSpans[k] = append(nackSpans[k], span{int64(o.at), int64(e.At)})
						nackOpen[k] = append(open[:i], open[i+1:]...)
						break
					}
				}
			}
		case NackTX:
			a = getADU(e.ID, e.ADU)
			a.Nacks++
			k := aduKey{e.ID, e.ADU}
			nackOpen[k] = append(nackOpen[k], openNack{e.At, e.Flow})
		case ChecksumFail:
			a = getADU(e.ID, e.ADU)
			a.ChecksumFails++
		case ADUDeliver:
			a = getADU(e.ID, e.ADU)
			a.Outcome = "delivered"
			a.Settled = e.At
		case ADULoss:
			a = getADU(e.ID, e.ADU)
			if a.Outcome == "pending" {
				a.Outcome = "lost"
				a.Settled = e.At
			}
		case ADUExpire:
			a = getADU(e.ID, e.ADU)
			if a.Outcome == "pending" {
				a.Outcome = "expired"
				a.Settled = e.At
			}

		case MsgSubmit:
			c := getConn(e.ID)
			c.msgs = append(c.msgs, &MsgTrace{
				Conn: e.ID, Index: e.ADU, Off: e.Off, End: e.Off + int64(e.Len),
				Submitted: e.At, FirstTX: Unset, FirstRX: Unset,
				Ready: Unset, Delivered: Unset, Outcome: "pending",
			})
		case SegTX, SegRetx:
			c := getConn(e.ID)
			c.txs = append(c.txs, e)
		case SegOOO:
			c := getConn(e.ID)
			c.arrivals = append(c.arrivals, arrival{e.At, e.Off, e.Off + int64(e.Len)})
		case SegDeliver:
			c := getConn(e.ID)
			c.arrivals = append(c.arrivals, arrival{e.At, e.Off, e.Off + int64(e.Len)})
			c.delivers = append(c.delivers, e)
		case StallOpen:
			c := getConn(e.ID)
			r.Stalls = append(r.Stalls, StallSpan{Conn: e.ID, Begin: e.At, End: Unset, Flow: e.Flow})
			c.stall = len(r.Stalls) - 1
		case StallClose:
			c := getConn(e.ID)
			if c.stall >= 0 {
				r.Stalls[c.stall].End = e.At
				c.stall = -1
			}

		case NetQueue:
			switch e.Proto {
			case wire.KindData:
				a = getADU(e.ID, e.ADU)
				a.Attr.Queueing += e.Dur
				a.Attr.Serialization += e.Dur2
			case wire.KindOTPData:
				for _, m := range getConn(e.ID).msgs {
					if e.Off < m.End && e.Off+int64(e.Len) > m.Off {
						m.Attr.Queueing += e.Dur
						m.Attr.Serialization += e.Dur2
					}
				}
			}
		case NetDeliver:
			switch e.Proto {
			case wire.KindData:
				a = getADU(e.ID, e.ADU)
				a.Attr.Propagation += e.Dur
			case wire.KindOTPData:
				for _, m := range getConn(e.ID).msgs {
					if e.Off < m.End && e.Off+int64(e.Len) > m.Off {
						m.Attr.Propagation += e.Dur
					}
				}
			}
		case NetDrop:
			r.Drops[e.Cause]++
			switch e.Proto {
			case wire.KindData:
				a = getADU(e.ID, e.ADU)
				a.Drops++
			case wire.KindOTPData:
				getConn(e.ID).drops = append(getConn(e.ID).drops, e)
			}

		case FaultBegin:
			openFaults[e.Flow] = len(r.Faults)
			r.Faults = append(r.Faults, FaultSpan{Kind: e.Cause, Flow: e.Flow, Begin: e.At, End: Unset})
		case FaultEnd:
			if i, ok := openFaults[e.Flow]; ok {
				r.Faults[i].End = e.At
				delete(openFaults, e.Flow)
			}
		}
		if a != nil {
			a.Events = append(a.Events, e)
		}
	}

	// ALF attribution.
	for k, a := range adus {
		// Recovery intervals still open at settle (or trace end) close there.
		closeAt := r.until(a.Settled)
		spans := nackSpans[k]
		for _, o := range nackOpen[k] {
			if int64(closeAt) > int64(o.at) {
				spans = append(spans, span{int64(o.at), int64(closeAt)})
			}
		}
		a.Attr.RetransmitWait = sim.Duration(mergeSpans(spans))
		if a.Submitted != Unset && a.FirstTX != Unset {
			a.Attr.SenderPace = a.FirstTX.Sub(a.Submitted)
		}
		if a.FirstTX != Unset && a.FirstRX != Unset {
			a.Attr.NetTransit = a.FirstRX.Sub(a.FirstTX)
		}
		if a.Outcome == "delivered" && a.FirstRX != Unset {
			a.Attr.Reassembly = max(a.Settled.Sub(a.FirstRX)-a.Attr.RetransmitWait, 0)
		}
		if a.Submitted != Unset && a.Settled != Unset {
			a.Attr.Total = a.Settled.Sub(a.Submitted)
		}
		r.ADUs = append(r.ADUs, a)
	}
	sort.Slice(r.ADUs, func(i, j int) bool {
		if r.ADUs[i].Stream != r.ADUs[j].Stream {
			return r.ADUs[i].Stream < r.ADUs[j].Stream
		}
		return r.ADUs[i].Name < r.ADUs[j].Name
	})

	// OTP attribution; the sort below orders what the map walk appends.
	for _, c := range conns {
		for _, m := range c.msgs {
			m.Ready, m.FirstRX = coverageTime(c.arrivals, m.Off, m.End)
			// A lost-then-recovered segment's wait lives between its
			// first (lost) transmission and the last transmission that
			// preceded the first arrival; transit proper is only that
			// last copy's flight time. Without retransmissions
			// lastTX == FirstTX and the terms reduce to the plain split.
			lastTX := Unset // latest transmission not after first arrival
			for _, e := range c.txs {
				if e.Off < m.End && e.Off+int64(e.Len) > m.Off {
					if m.FirstTX == Unset {
						m.FirstTX = e.At
					}
					if e.Kind == SegRetx {
						m.Retx++
					}
					if m.FirstRX != Unset && e.At <= m.FirstRX {
						lastTX = e.At
					}
				}
			}
			for _, e := range c.drops {
				if e.Off < m.End && e.Off+int64(e.Len) > m.Off {
					m.Drops++
				}
			}
			for _, e := range c.delivers {
				if e.Off+int64(e.Len) >= m.End {
					m.Delivered = e.At
					m.Outcome = "delivered"
					break
				}
			}
			if m.FirstTX != Unset {
				m.Attr.SenderPace = m.FirstTX.Sub(m.Submitted)
			}
			if m.FirstTX != Unset && m.FirstRX != Unset {
				if lastTX == Unset {
					lastTX = m.FirstTX
				}
				m.Attr.NetTransit = m.FirstRX.Sub(lastTX)
				m.Attr.RetransmitWait = lastTX.Sub(m.FirstTX)
			}
			if m.FirstRX != Unset && m.Ready != Unset {
				m.Attr.RetransmitWait += m.Ready.Sub(m.FirstRX)
			}
			if m.Ready != Unset && m.Delivered != Unset {
				m.Attr.HOLStall = m.Delivered.Sub(m.Ready)
			}
			if m.Delivered != Unset {
				m.Attr.Total = m.Delivered.Sub(m.Submitted)
			}
			r.Msgs = append(r.Msgs, m)
		}
	}
	sort.Slice(r.Msgs, func(i, j int) bool {
		if r.Msgs[i].Conn != r.Msgs[j].Conn {
			return r.Msgs[i].Conn < r.Msgs[j].Conn
		}
		return r.Msgs[i].Index < r.Msgs[j].Index
	})
	return r
}
