package tracing

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Perfetto / chrome://tracing export: the legacy Trace Event JSON
// format ({"traceEvents": [...]}, timestamps in microseconds). One
// "thread" per tracer track (alf/snd/N, alf/rcv/N, otp/N, net links,
// faults); ADU lifecycles and fault windows are async spans (they
// overlap freely), head-of-line stalls are complete spans (sequential
// per connection), point events are instants, and causal links are
// flow arrows sharing a flow id.

// traceEvent is one entry of the traceEvents array.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Cat  string         `json:"cat,omitempty"`
	ID   string         `json:"id,omitempty"`
	S    string         `json:"s,omitempty"`  // instant scope
	BP   string         `json:"bp,omitempty"` // flow binding point
	Args map[string]any `json:"args,omitempty"`
}

type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

const perfettoPid = 1

func us(ns int64) float64 { return float64(ns) / 1e3 }

// WritePerfetto writes the recorded trace as Chrome/Perfetto trace-event
// JSON. Output is deterministic for a given trace: thread ids are
// assigned by sorted track name and events appear in recorded order.
func (t *Tracer) WritePerfetto(w io.Writer) error {
	rep := t.Analyze()
	var events []Event
	if t != nil {
		events = t.events
	}

	// Thread id per track, by sorted name.
	var names []string
	seen := map[string]bool{}
	for _, e := range events {
		if e.Track != "" && !seen[e.Track] {
			seen[e.Track] = true
			names = append(names, e.Track)
		}
	}
	sort.Strings(names)
	tid := make(map[string]int, len(names))
	out := make([]traceEvent, 0, 2*len(events)+2*len(names)+4)
	out = append(out, traceEvent{
		Name: "process_name", Ph: "M", Pid: perfettoPid,
		Args: map[string]any{"name": "alf-sim"},
	})
	for i, n := range names {
		tid[n] = i + 1
		out = append(out, traceEvent{
			Name: "thread_name", Ph: "M", Pid: perfettoPid, Tid: i + 1,
			Args: map[string]any{"name": n},
		})
	}

	// ADU lifecycle spans (async: pipelined ADUs overlap).
	for _, a := range rep.ADUs {
		if a.Submitted == Unset {
			continue
		}
		end := rep.until(a.Settled)
		track := fmt.Sprintf("alf/snd/%d", a.Stream)
		id := fmt.Sprintf("adu/%d/%d", a.Stream, a.Name)
		args := map[string]any{
			"outcome": a.Outcome, "size": a.Size, "frags": a.Frags,
			"retx": a.Retx, "nacks": a.Nacks, "drops": a.Drops,
			"attr_total_ns":      int64(a.Attr.Total),
			"attr_pace_ns":       int64(a.Attr.SenderPace),
			"attr_transit_ns":    int64(a.Attr.NetTransit),
			"attr_retx_wait_ns":  int64(a.Attr.RetransmitWait),
			"attr_reassembly_ns": int64(a.Attr.Reassembly),
		}
		out = append(out,
			traceEvent{Name: fmt.Sprintf("ADU %d", a.Name), Ph: "b", Cat: "adu",
				ID: id, Ts: us(int64(a.Submitted)), Pid: perfettoPid, Tid: tid[track], Args: args},
			traceEvent{Name: fmt.Sprintf("ADU %d", a.Name), Ph: "e", Cat: "adu",
				ID: id, Ts: us(int64(end)), Pid: perfettoPid, Tid: tid[track]},
		)
	}
	// OTP message spans.
	for _, m := range rep.Msgs {
		end := rep.until(m.Delivered)
		track := fmt.Sprintf("otp/%d", m.Conn)
		id := fmt.Sprintf("msg/%d/%d", m.Conn, m.Index)
		out = append(out,
			traceEvent{Name: fmt.Sprintf("msg %d", m.Index), Ph: "b", Cat: "msg",
				ID: id, Ts: us(int64(m.Submitted)), Pid: perfettoPid, Tid: tid[track],
				Args: map[string]any{
					"outcome": m.Outcome, "retx": m.Retx, "drops": m.Drops,
					"attr_total_ns":     int64(m.Attr.Total),
					"attr_hol_stall_ns": int64(m.Attr.HOLStall),
				}},
			traceEvent{Name: fmt.Sprintf("msg %d", m.Index), Ph: "e", Cat: "msg",
				ID: id, Ts: us(int64(end)), Pid: perfettoPid, Tid: tid[track]},
		)
	}
	// Head-of-line stalls: sequential per connection, complete spans.
	for _, s := range rep.Stalls {
		end := rep.until(s.End)
		track := fmt.Sprintf("otp/%d", s.Conn)
		out = append(out, traceEvent{
			Name: "HOL stall", Ph: "X", Cat: "stall",
			Ts: us(int64(s.Begin)), Dur: us(int64(end - s.Begin)),
			Pid: perfettoPid, Tid: tid[track],
		})
	}
	// Fault windows (async: overlapping windows are refcounted).
	for _, f := range rep.Faults {
		end := rep.until(f.End)
		id := fmt.Sprintf("fault/%d", f.Flow)
		out = append(out,
			traceEvent{Name: "fault " + f.Kind, Ph: "b", Cat: "fault",
				ID: id, Ts: us(int64(f.Begin)), Pid: perfettoPid, Tid: tid["faults"]},
			traceEvent{Name: "fault " + f.Kind, Ph: "e", Cat: "fault",
				ID: id, Ts: us(int64(end)), Pid: perfettoPid, Tid: tid["faults"]},
		)
	}

	// Point events and flow bookkeeping.
	type flowPoint struct {
		ev   Event
		tidN int
	}
	flows := map[uint64][]flowPoint{}
	for _, e := range events {
		var name string
		switch e.Kind {
		case NetDrop:
			name = "drop:" + e.Cause
			if e.Proto != "" {
				name += " " + string(e.Proto)
			}
		case NackTX:
			name = fmt.Sprintf("nack %d", e.ADU)
		case FragRetx:
			name = fmt.Sprintf("retx %d+%d", e.ADU, e.Off)
		case SegRetx:
			name = fmt.Sprintf("seg-retx @%d", e.Off)
		case ADUDeliver:
			name = fmt.Sprintf("deliver %d", e.ADU)
		case ADULoss:
			name = fmt.Sprintf("lost %d", e.ADU)
		case ADUExpire:
			name = fmt.Sprintf("expire %d", e.ADU)
		case ChecksumFail:
			name = fmt.Sprintf("checksum-fail %d", e.ADU)
		case StallOpen:
			name = fmt.Sprintf("stall @%d", e.Off)
		}
		if name != "" {
			out = append(out, traceEvent{
				Name: name, Ph: "i", S: "t", Cat: e.Kind.String(),
				Ts: us(int64(e.At)), Pid: perfettoPid, Tid: tid[e.Track],
			})
		}
		if e.Flow != 0 {
			flows[e.Flow] = append(flows[e.Flow], flowPoint{e, tid[e.Track]})
		}
	}

	// Causal links as flow arrows: start at the first event carrying the
	// id, step through intermediates, finish at the last.
	var flowIDs []uint64
	for id, pts := range flows {
		if len(pts) >= 2 {
			flowIDs = append(flowIDs, id)
		}
	}
	sort.Slice(flowIDs, func(i, j int) bool { return flowIDs[i] < flowIDs[j] })
	for _, id := range flowIDs {
		pts := flows[id]
		name := pts[0].ev.Kind.String()
		for i, p := range pts {
			ph := "t"
			switch i {
			case 0:
				ph = "s"
			case len(pts) - 1:
				ph = "f"
			}
			te := traceEvent{
				Name: "cause:" + name, Ph: ph, Cat: "causal",
				ID: fmt.Sprintf("flow/%d", id),
				Ts: us(int64(p.ev.At)), Pid: perfettoPid, Tid: p.tidN,
			}
			if ph == "f" {
				te.BP = "e"
			}
			out = append(out, te)
		}
	}

	enc := json.NewEncoder(w)
	return enc.Encode(traceFile{TraceEvents: out, DisplayTimeUnit: "ms"})
}
