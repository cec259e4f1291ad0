package tracing

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/sim"
)

// Terminal renderings of an analyzed trace: a run summary, a per-unit
// attribution table, and a single-ADU timeline. All output is
// deterministic (virtual timestamps, sorted iteration).

func fmtTime(t sim.Time) string {
	if t == Unset {
		return "-"
	}
	return fmt.Sprintf("%.3fms", float64(t)/1e6)
}

func fmtDur(d sim.Duration) string {
	return fmt.Sprintf("%.3fms", float64(d)/1e6)
}

// until is t, or the trace's end for a span still open at it (Unset).
func (r *Report) until(t sim.Time) sim.Time {
	if t == Unset {
		return r.End
	}
	return t
}

// WriteSummary prints run-level totals: ADU and message outcomes,
// drops by cause, stall and fault window counts.
func (r *Report) WriteSummary(w io.Writer) {
	var delivered, lost, expired, pending int
	var retx, drops, nacks int
	for _, a := range r.ADUs {
		switch a.Outcome {
		case "delivered":
			delivered++
		case "lost":
			lost++
		case "expired":
			expired++
		default:
			pending++
		}
		retx += a.Retx
		drops += a.Drops
		nacks += a.Nacks
	}
	fmt.Fprintf(w, "trace: %s simulated\n", fmtTime(r.End))
	if len(r.ADUs) > 0 {
		fmt.Fprintf(w, "alf: %d ADUs  delivered=%d lost=%d expired=%d pending=%d  nacks=%d retx=%d frag-drops=%d\n",
			len(r.ADUs), delivered, lost, expired, pending, nacks, retx, drops)
	}
	if len(r.Msgs) > 0 {
		var mDelivered, mRetx int
		var stallTotal sim.Duration
		for _, m := range r.Msgs {
			if m.Outcome == "delivered" {
				mDelivered++
			}
			mRetx += m.Retx
			stallTotal += m.Attr.HOLStall
		}
		fmt.Fprintf(w, "otp: %d msgs  delivered=%d pending=%d  retx-overlaps=%d  hol-stall(sum over msgs)=%s\n",
			len(r.Msgs), mDelivered, len(r.Msgs)-mDelivered, mRetx, fmtDur(stallTotal))
	}
	if len(r.Stalls) > 0 {
		var total sim.Duration
		for _, s := range r.Stalls {
			total += r.until(s.End).Sub(s.Begin)
		}
		fmt.Fprintf(w, "stalls: %d windows, %s blocked\n", len(r.Stalls), fmtDur(total))
	}
	if len(r.Drops) > 0 {
		fmt.Fprintf(w, "net drops:")
		writeTally(w, r.Drops)
	}
	if len(r.Faults) > 0 {
		byKind := make(map[string]int)
		for _, f := range r.Faults {
			byKind[f.Kind]++
		}
		fmt.Fprintf(w, "faults: %d windows", len(r.Faults))
		writeTally(w, byKind)
	}
}

// writeTally ends a summary line with " key=count" for each key of m,
// in sorted order.
func writeTally(w io.Writer, m map[string]int) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, " %s=%d", k, m[k])
	}
	fmt.Fprintln(w)
}

// WriteAttrTable prints the per-unit latency attribution table: one
// row per ALF ADU and per OTP message, phases in milliseconds.
func (r *Report) WriteAttrTable(w io.Writer) {
	const format = "%-14s %-10s %9s %9s %9s %9s %9s %9s %5v %5v\n"
	row := func(unit, outcome string, a Attribution, retx, drops any) {
		fmt.Fprintf(w, format, unit, outcome,
			fmtDur(a.Total), fmtDur(a.SenderPace), fmtDur(a.NetTransit),
			fmtDur(a.RetransmitWait), fmtDur(a.Reassembly), fmtDur(a.HOLStall), retx, drops)
	}
	header := func(unit string) {
		fmt.Fprintf(w, format, unit, "outcome", "total", "pace", "transit", "retx-wait", "reasm", "hol", "retx", "drops")
	}
	if len(r.ADUs) > 0 {
		header("alf adu")
		for _, a := range r.ADUs {
			row(fmt.Sprintf("s%d/%d", a.Stream, a.Name), a.Outcome, a.Attr, a.Retx, a.Drops)
		}
	}
	if len(r.Msgs) > 0 {
		if len(r.ADUs) > 0 {
			fmt.Fprintln(w)
		}
		header("otp msg")
		for _, m := range r.Msgs {
			row(fmt.Sprintf("c%d/%d", m.Conn, m.Index), m.Outcome, m.Attr, m.Retx, m.Drops)
		}
	}
}

// WriteADU prints the full event timeline of one ADU, or a note when
// the trace never saw it.
func (r *Report) WriteADU(w io.Writer, stream byte, name uint64) {
	a := r.ADU(stream, name)
	if a == nil {
		fmt.Fprintf(w, "adu s%d/%d: not in trace\n", stream, name)
		return
	}
	fmt.Fprintf(w, "adu s%d/%d: %s, %d bytes, tag %d\n", a.Stream, a.Name, a.Outcome, a.Size, a.Tag)
	for _, e := range a.Events {
		fmt.Fprintf(w, "  %10s  %-13s %s", fmtTime(e.At), e.Kind.String(), e.Track)
		switch e.Kind {
		case FragTX, FragRetx, ParityTX, FragRX, ParityRX:
			fmt.Fprintf(w, "  off=%d len=%d", e.Off, e.Len)
			if e.Dur > 0 {
				fmt.Fprintf(w, " pacer-wait=%s", fmtDur(e.Dur))
			}
		case NetQueue:
			fmt.Fprintf(w, "  queue-wait=%s ser=%s", fmtDur(e.Dur), fmtDur(e.Dur2))
		case NetDeliver:
			fmt.Fprintf(w, "  prop=%s", fmtDur(e.Dur))
		case NetDrop:
			fmt.Fprintf(w, "  cause=%s", e.Cause)
		case ADUSubmit, ADUDeliver:
			fmt.Fprintf(w, "  %d bytes", e.Len)
		}
		if e.Flow != 0 {
			fmt.Fprintf(w, "  [flow %d]", e.Flow)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  attribution: total=%s pace=%s transit=%s retx-wait=%s reasm=%s (queue=%s ser=%s prop=%s across %d frags)\n",
		fmtDur(a.Attr.Total), fmtDur(a.Attr.SenderPace), fmtDur(a.Attr.NetTransit),
		fmtDur(a.Attr.RetransmitWait), fmtDur(a.Attr.Reassembly),
		fmtDur(a.Attr.Queueing), fmtDur(a.Attr.Serialization), fmtDur(a.Attr.Propagation),
		a.Frags+a.Retx+a.Parity)
}
