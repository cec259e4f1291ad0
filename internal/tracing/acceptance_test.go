// Acceptance test for the tracing plane: run the real ALF stack and
// the real OTP baseline over one simulated network, kill exactly one
// transmission window with a fault, and check that the reconstructed
// timelines show the paper's §5 claim — the ordered transport charges
// head-of-line stall to ADUs that arrived intact, ALF charges none.
package tracing_test

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/buf"
	alf "repro/internal/core"
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/otp"
	"repro/internal/sim"
	"repro/internal/tracing"
	"repro/internal/wire"
	"repro/internal/xcode"
)

// rig is the two-protocol test topology: each protocol gets its own
// clean duplex path so a fault can be aimed at both forward directions
// while the reverse (ACK/NACK) paths stay alive.
type rig struct {
	sched  *sim.Scheduler
	tracer *tracing.Tracer
	inj    *faults.Injector

	alfSnd *alf.Sender
	alfRcv *alf.Receiver
	oSnd   *otp.Conn
	oRcv   *otp.Conn

	alfFwd, otpFwd *netsim.Link

	deliverOrder []uint64 // ALF delivery order by name
}

func newRig(t *testing.T) *rig {
	t.Helper()
	r := &rig{sched: sim.NewScheduler()}
	r.tracer = tracing.New(r.sched)

	net := netsim.New(r.sched, 1)
	net.SetTracer(r.tracer)
	aS := net.NewNode("alf-src")
	aD := net.NewNode("alf-dst")
	oS := net.NewNode("otp-src")
	oD := net.NewNode("otp-dst")
	lc := netsim.LinkConfig{RateBps: 100e6, Delay: time.Millisecond}
	var aBack, oBack *netsim.Link
	r.alfFwd, aBack = net.NewDuplex(aS, aD, lc)
	r.otpFwd, oBack = net.NewDuplex(oS, oD, lc)

	aCfg := alf.Config{
		NackDelay:    10 * time.Millisecond,
		NackInterval: 20 * time.Millisecond,
		Tracer:       r.tracer,
	}
	var err error
	if r.alfSnd, r.alfRcv, err = alf.Connect(r.sched, aS, aD, r.alfFwd, aBack, aCfg); err != nil {
		t.Fatal(err)
	}
	r.alfRcv.OnADU = func(adu alf.ADU) { r.deliverOrder = append(r.deliverOrder, adu.Name) }

	oCfg := otp.Config{
		MSS:        1000,
		InitialRTO: 100 * time.Millisecond,
		MinRTO:     50 * time.Millisecond,
		Tracer:     r.tracer,
	}
	r.oSnd, r.oRcv = otp.Connect(r.sched, oS, oD, r.otpFwd, oBack, oCfg, oCfg)

	r.inj = faults.New(r.sched, 1)
	r.inj.SetTracer(r.tracer)
	return r
}

// runLossScenario submits 5 ADUs to ALF and 5 messages to OTP, 1000 B
// each, one every 10 ms, and blacks out both forward links over a
// window that swallows exactly unit #2's transmission.
func runLossScenario(t *testing.T) (*rig, *tracing.Report) {
	t.Helper()
	r := newRig(t)
	for i := 0; i < 5; i++ {
		name := uint64(i)
		payload := bytes.Repeat([]byte{byte(i + 1)}, 1000)
		r.sched.After(sim.Duration(i)*10*time.Millisecond, func() {
			if _, err := r.alfSnd.Send(name, xcode.SyntaxRaw, payload); err != nil {
				t.Errorf("alf Send(%d): %v", name, err)
			}
			if err := r.oSnd.Send(payload); err != nil {
				t.Errorf("otp Send(%d): %v", name, err)
			}
		})
	}
	// Down from 19.5 ms to 25 ms: unit 2 (t=20 ms) dies on the wire,
	// the links are healed well before unit 3 (t=30 ms).
	r.inj.Blackout([]*netsim.Link{r.alfFwd, r.otpFwd},
		19500*time.Microsecond, 5500*time.Microsecond)
	if err := r.sched.RunUntil(sim.Time(0).Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	return r, r.tracer.Analyze()
}

// TestLossStallsOTPNotALF reconstructs the injected loss from the
// trace alone and asserts the architectural contrast: under OTP every
// message after the loss shows head-of-line stall; under ALF none
// does, and delivery demonstrably ran ahead of the recovery.
func TestLossStallsOTPNotALF(t *testing.T) {
	r, rep := runLossScenario(t)

	// The blackout must appear as a fault span with down-drops linked
	// to it (one ALF fragment + one OTP segment died).
	if len(rep.Faults) != 1 || rep.Faults[0].Kind != "blackout" {
		t.Fatalf("faults = %+v, want one blackout", rep.Faults)
	}
	if rep.Drops["down"] < 2 {
		t.Fatalf("down drops = %d, want >= 2 (one per protocol)", rep.Drops["down"])
	}

	// ALF side: all five delivered; #2 recovered via NACK; later ADUs
	// show zero HOL stall and were delivered before #2 settled.
	for i := uint64(0); i < 5; i++ {
		a := rep.ADU(0, i)
		if a == nil || a.Outcome != "delivered" {
			t.Fatalf("ADU %d = %+v, want delivered", i, a)
		}
		if a.Attr.HOLStall != 0 {
			t.Errorf("ADU %d HOLStall = %v, want 0 (ALF never stalls)", i, a.Attr.HOLStall)
		}
	}
	lost := rep.ADU(0, 2)
	if lost.Drops == 0 || lost.Nacks == 0 || lost.Retx == 0 {
		t.Errorf("ADU 2 drops/nacks/retx = %d/%d/%d, want all > 0",
			lost.Drops, lost.Nacks, lost.Retx)
	}
	if lost.Attr.RetransmitWait <= 0 {
		t.Errorf("ADU 2 RetransmitWait = %v, want > 0", lost.Attr.RetransmitWait)
	}
	for _, i := range []uint64{3, 4} {
		if a := rep.ADU(0, i); a.Settled >= lost.Settled {
			t.Errorf("ADU %d settled %v, after lost ADU 2's %v — not out-of-order delivery",
				i, a.Settled, lost.Settled)
		}
	}
	// Delivery order as the application saw it: 3 and 4 before 2.
	want := []uint64{0, 1, 3, 4, 2}
	if len(r.deliverOrder) != len(want) {
		t.Fatalf("delivered %v", r.deliverOrder)
	}
	for i, n := range want {
		if r.deliverOrder[i] != n {
			t.Fatalf("delivery order %v, want %v", r.deliverOrder, want)
		}
	}

	// OTP side: messages 3 and 4 arrived intact during the outage of
	// message 2's bytes and paid the in-order delivery cost.
	msg := func(index uint64) *tracing.MsgTrace {
		for _, m := range rep.Msgs {
			if m.Conn == 0 && m.Index == index {
				return m
			}
		}
		return nil
	}
	m2 := msg(2)
	if m2 == nil || m2.Outcome != "delivered" {
		t.Fatalf("msg 2 = %+v, want delivered", m2)
	}
	if m2.Retx == 0 || m2.Drops == 0 {
		t.Errorf("msg 2 retx/drops = %d/%d, want both > 0", m2.Retx, m2.Drops)
	}
	if m2.Attr.RetransmitWait <= 0 {
		t.Errorf("msg 2 RetransmitWait = %v, want > 0", m2.Attr.RetransmitWait)
	}
	for _, i := range []uint64{3, 4} {
		m := msg(i)
		if m == nil || m.Outcome != "delivered" {
			t.Fatalf("msg %d = %+v, want delivered", i, m)
		}
		if m.Attr.HOLStall <= 0 {
			t.Errorf("msg %d HOLStall = %v, want > 0 (blocked behind msg 2)", i, m.Attr.HOLStall)
		}
		if m.Ready >= m.Delivered {
			t.Errorf("msg %d ready %v !< delivered %v", i, m.Ready, m.Delivered)
		}
	}

	// Causal chain: the stall the loss opened carries the fault's flow
	// (fault window → down-drop → HOL stall).
	if len(rep.Stalls) == 0 {
		t.Fatal("no stall spans reconstructed")
	}
	st := rep.Stalls[0]
	if st.Flow != rep.Faults[0].Flow {
		t.Errorf("stall flow %d, want fault flow %d", st.Flow, rep.Faults[0].Flow)
	}
	if st.End == tracing.Unset || st.End.Sub(st.Begin) <= 0 {
		t.Errorf("stall span [%v, %v] not closed", st.Begin, st.End)
	}
}

// TestPerfettoExport validates the Chrome trace-event JSON produced
// from a real run: parseable, displayTimeUnit set, async spans
// balanced, every event on a named process/thread.
func TestPerfettoExport(t *testing.T) {
	r, _ := runLossScenario(t)

	var buf bytes.Buffer
	if err := r.tracer.WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct {
			Name string          `json:"name"`
			Ph   string          `json:"ph"`
			Ts   float64         `json:"ts"`
			Pid  int             `json:"pid"`
			Tid  int             `json:"tid"`
			ID   string          `json:"id"`
			Args json.RawMessage `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if f.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", f.DisplayTimeUnit)
	}
	if len(f.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	valid := map[string]bool{"M": true, "b": true, "e": true, "X": true,
		"i": true, "s": true, "t": true, "f": true}
	open := make(map[string]int) // async span balance by id
	var threads, flows int
	for _, e := range f.TraceEvents {
		if !valid[e.Ph] {
			t.Fatalf("event %q has unknown phase %q", e.Name, e.Ph)
		}
		switch e.Ph {
		case "M":
			if e.Name == "thread_name" {
				threads++
			}
		case "b":
			open[e.ID]++
		case "e":
			open[e.ID]--
		case "s", "t", "f":
			flows++
		}
		if e.Ph != "M" && e.Ts < 0 {
			t.Fatalf("event %q at negative ts %v", e.Name, e.Ts)
		}
	}
	for id, n := range open {
		if n != 0 {
			t.Errorf("async span %q unbalanced (%+d)", id, n)
		}
	}
	if threads < 4 {
		t.Errorf("only %d named threads, want alf/otp/net/faults tracks", threads)
	}
	if flows < 2 {
		t.Errorf("only %d flow-arrow events, want a causal chain", flows)
	}

	// Export must be deterministic: a second encoding is byte-identical.
	var buf2 bytes.Buffer
	if err := r.tracer.WritePerfetto(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("WritePerfetto is not deterministic")
	}
}

// wantAttr is the loss scenario's attribution table, both protocols:
// ALF's lost ADU 2 waits for its retransmission alone, while OTP's lost
// message 2 stalls messages 3 and 4 behind it.
const wantAttr = `alf adu        outcome        total      pace   transit retx-wait     reasm       hol  retx drops
s0/0           delivered    1.083ms   0.000ms   1.083ms   0.000ms   0.000ms   0.000ms     0     0
s0/1           delivered    1.083ms   0.000ms   1.083ms   0.000ms   0.000ms   0.000ms     0     0
s0/2           delivered   33.167ms   0.000ms  33.167ms   2.084ms   0.000ms   0.000ms     1     1
s0/3           delivered    1.083ms   0.000ms   1.083ms   0.000ms   0.000ms   0.000ms     0     0
s0/4           delivered    1.083ms   0.000ms   1.083ms   0.000ms   0.000ms   0.000ms     0     0

otp msg        outcome        total      pace   transit retx-wait     reasm       hol  retx drops
c0/0           delivered    1.081ms   0.000ms   1.081ms   0.000ms   0.000ms   0.000ms     0     0
c0/1           delivered    1.081ms   0.000ms   1.081ms   0.000ms   0.000ms   0.000ms     0     0
c0/2           delivered   51.081ms   0.000ms   1.081ms  50.000ms   0.000ms   0.000ms     1     1
c0/3           delivered   41.081ms   0.000ms   1.081ms   0.000ms   0.000ms  40.000ms     0     0
c0/4           delivered   31.081ms   0.000ms   1.081ms   0.000ms   0.000ms  30.000ms     0     0
`

// TestReportWriters checks the terminal renderings on a real run: the
// attribution table byte for byte, the others for the reconstructed
// facts they must mention.
func TestReportWriters(t *testing.T) {
	_, rep := runLossScenario(t)

	var sum, attr, one bytes.Buffer
	rep.WriteSummary(&sum)
	rep.WriteAttrTable(&attr)
	rep.WriteADU(&one, 0, 2)
	if attr.String() != wantAttr {
		t.Errorf("attribution table:\n%s\nwant:\n%s", attr.String(), wantAttr)
	}
	for _, probe := range []struct {
		buf  *bytes.Buffer
		want string
	}{
		{&sum, "blackout"},
		{&one, "frag-retx"},
	} {
		if !bytes.Contains(probe.buf.Bytes(), []byte(probe.want)) {
			t.Errorf("output missing %q:\n%s", probe.want, probe.buf.String())
		}
	}
}

// TestDropsOfAEADFragmentsCarryADUIdentity: a drop annotation must name
// the ADU whatever the stream's cipher suite. AEAD fragments carry a
// 16-byte tag after the payload, parity fragments included; each one
// dropped on a down link is recorded as alf-data with the stream, name
// and offset its header carries.
func TestDropsOfAEADFragmentsCarryADUIdentity(t *testing.T) {
	sched := sim.NewScheduler()
	tracer := tracing.New(sched)
	net := netsim.New(sched, 1)
	net.SetTracer(tracer)
	link := net.NewLink(net.NewNode("src"), net.NewNode("dst"), netsim.LinkConfig{Delay: time.Millisecond})
	link.SetDown(true)

	type frag struct {
		off    int64
		parity bool
	}
	var sent []frag
	snd, err := alf.NewSender(sched, nil, alf.Config{StreamID: 6, Suite: alf.SuiteAEAD, Key: 0xFEED, FECGroup: 2, MTU: alf.HeaderSize + 16 + 64})
	if err != nil {
		t.Fatal(err)
	}
	snd.SendRef = func(ref *buf.Ref) error {
		h, err := wire.ParseHeader(ref.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		sent = append(sent, frag{int64(h.FragOff), h.Flags&wire.FlagParity != 0})
		return link.SendRef(ref)
	}
	snd.Send(1, xcode.SyntaxRaw, make([]byte, 64)) // name 0
	name, _ := snd.Send(2, xcode.SyntaxRaw, make([]byte, 200))

	var dropped []frag
	for _, e := range tracer.Events() {
		if e.Kind != tracing.NetDrop || e.ADU != name {
			continue
		}
		if e.Proto != wire.KindData || e.ID != 6 {
			t.Errorf("drop recorded as proto %q stream %d, want %q stream 6", e.Proto, e.ID, wire.KindData)
		}
		dropped = append(dropped, frag{off: e.Off})
	}
	var parity int
	for i, f := range sent[2:] { // ADU 0 went out as one fragment and its parity
		if f.parity {
			parity++
		}
		if i >= len(dropped) || dropped[i].off != f.off {
			t.Fatalf("drops of ADU %d = %v, want one per sent fragment %v", name, dropped, sent[2:])
		}
	}
	if len(dropped) != len(sent)-2 || parity == 0 {
		t.Fatalf("%d drops for %d fragments (%d parity)", len(dropped), len(sent)-2, parity)
	}
}
