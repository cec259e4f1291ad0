package main

import "time"

// spanID names a layer boundary the harness calls through. The spans
// are recorded here, around the harness's own calls into each layer;
// nothing inside the library is instrumented.
type spanID uint8

const (
	spRep         spanID = iota // the repetition; its self time is the harness residual
	spAppSubmit                 // ledger.submit + Sender.Send
	spCoreSend                  // Sender.Send
	spLinkEnqueue               // the send/SendRef closures handed to NewSender
	spLoopRun                   // Clock.Run, or Scheduler.RunUntil in the sim workloads
	spUDPWrite                  // PacketConn.WriteTo, seen by the traced-pass conn wrapper
	spCoreRecv                  // Receiver.HandlePacket
	spAppDeliver                // OnADU: ledger check, release, closed-loop refill
	spCoreControl               // Sender.HandleControl
	spFlowScale                 // experiments.RunFlowScale, opaque from outside
	numSpans
)

var spanNames = [numSpans]string{
	"rep", "app.submit", "core.send", "link.enqueue", "loop.run",
	"udplink.write", "core.recv", "app.deliver", "core.control",
	"experiments.flowscale",
}

// span is one stored record, as written by -trace-out.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index of the enclosing span, -1 for the root
	Tag    uint64 `json:"adu_tag"`
}

// spanAgg is the running total for one span name.
type spanAgg struct {
	Count int64
	Total int64 // ns between begin and end
	Self  int64 // Total minus the time covered by child spans
}

type frame struct {
	id           spanID
	idx          int32 // index into spans, -1 if not stored
	start, child int64
}

// maxStoredSpans bounds the memory of a traced repetition. Self times
// and counts are accumulated as each span closes and cover every span;
// only the stored records for -trace-out stop at the bound.
const maxStoredSpans = 1 << 18

// tracer records spans on the loop goroutine. It is not safe for
// concurrent use and does not need to be: every call the harness makes
// into a layer, and every callback a layer makes into the harness,
// runs on the one goroutine that owns the scheduler.
//
// The call stack is tracked from construction, but totals accumulate
// only between start and stop, which the rig calls at the edges of the
// measured window. start re-bases the open spans to the window's first
// instant and stop closes them at its last, so the self times add up to
// exactly stop-start: a layer's self time is its span minus its
// children, and the root's self time is whatever no layer claimed.
//
// All methods are nil-safe. The untraced pass runs with a nil tracer
// and pays one predictable branch per boundary.
type tracer struct {
	now     func() int64 // ns since the rig's epoch
	on      bool
	stack   []frame
	agg     [numSpans]spanAgg
	spans   []span
	dropped int64 // spans not stored because the bound was reached
}

// newTracer returns a tracer whose clock counts from epoch, with the
// root span already open.
func newTracer(epoch time.Time) *tracer {
	t := &tracer{
		now:   func() int64 { return int64(time.Since(epoch)) },
		stack: make([]frame, 0, 16),
		spans: make([]span, 0, maxStoredSpans),
	}
	t.begin(spRep, 0)
	return t
}

// begin opens a span under the innermost open one.
func (t *tracer) begin(id spanID, tag uint64) {
	if t == nil {
		return
	}
	f := frame{id: id, idx: -1}
	if t.on {
		f.start = t.now()
		f.idx = t.store(id, tag, f.start, t.stack[len(t.stack)-1].idx)
	}
	t.stack = append(t.stack, f)
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil || len(t.stack) <= 1 {
		return // the root closes in stop
	}
	top := len(t.stack) - 1
	if t.on {
		t.close(top, t.now())
	}
	t.stack = t.stack[:top]
}

// store appends a span record if there is room and returns its index.
func (t *tracer) store(id spanID, tag uint64, start int64, parent int32) int32 {
	if len(t.spans) >= maxStoredSpans {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{Name: spanNames[id], Start: start, Parent: parent, Tag: tag})
	return int32(len(t.spans) - 1)
}

// close accounts stack[i] as ending at now and charges its duration to
// the frame below it.
func (t *tracer) close(i int, now int64) {
	f := &t.stack[i]
	dur := now - f.start
	a := &t.agg[f.id]
	a.Count++
	a.Total += dur
	a.Self += dur - f.child
	if i > 0 {
		t.stack[i-1].child += dur
	}
	if f.idx >= 0 {
		t.spans[f.idx].End = now
	}
}

// start opens the measured window at now: every span already open is
// treated as beginning here.
func (t *tracer) start(now int64) {
	if t == nil {
		return
	}
	t.agg = [numSpans]spanAgg{}
	t.spans = t.spans[:0]
	t.dropped = 0
	t.on = true
	parent := int32(-1)
	for i := range t.stack {
		f := &t.stack[i]
		f.start, f.child = now, 0
		f.idx = t.store(f.id, 0, now, parent)
		parent = f.idx
	}
}

// stop closes the measured window at now: every span still open is
// treated as ending here, innermost first. The frames stay on the
// stack, because the calls they stand for are still in progress and
// their end() calls must stay balanced; with the tracer off those only
// pop.
func (t *tracer) stop(now int64) {
	if t == nil || !t.on {
		return
	}
	for i := len(t.stack) - 1; i >= 0; i-- {
		t.close(i, now)
	}
	t.on = false
}

// selfSum is the sum of all self times: by construction the length of
// the measured window.
func (t *tracer) selfSum() int64 {
	var s int64
	for _, a := range t.agg {
		s += a.Self
	}
	return s
}

// traceFile is what -trace-out holds for one workload: one JSON object
// per line, written as each traced repetition ends so that only one
// workload's spans are ever in memory.
type traceFile struct {
	Workload string `json:"workload"`
	Dropped  int64  `json:"spans_not_stored"`
	Spans    []span `json:"spans"`
}
