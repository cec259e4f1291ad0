package tracing

import (
	"fmt"
	"io"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/wire"
)

// mkALFData builds a valid ALF DATA fragment with a zero payload.
func mkALFData(stream byte, name uint64, off, fragLen int) []byte {
	pkt := make([]byte, wire.HeaderSize+fragLen)
	wire.PutHeader(pkt, &wire.Header{Stream: stream, Name: name, TotalLen: off + fragLen, FragOff: off, FragLen: fragLen})
	return pkt
}

// mkOTP builds a valid OTP segment.
func mkOTP(flags, conn byte, seq uint32, payload []byte) []byte {
	seg := make([]byte, wire.OTPHeaderSize+len(payload))
	copy(seg[wire.OTPHeaderSize:], payload)
	wire.PutOTP(seg, &wire.OTPHeader{Flags: flags, Conn: conn, Seq: seq, Len: len(payload)})
	return seg
}

func TestSniff(t *testing.T) {
	cases := []struct {
		name string
		pkt  []byte
		want wire.Kind
		id   byte
		adu  uint64
		off  int64
		len_ int
	}{
		{"alf-data", mkALFData(3, 77, 1024, 512), wire.KindData, 3, 77, 1024, 0},
		{"alf-ctrl", wire.EncodeControl(nil, &wire.Control{Stream: 5, Nacks: []uint64{9, 11}}), wire.KindCtrl, 5, 0, 0, 0},
		{"alf-hb", wire.EncodeHeartbeat(nil, 7, 42), wire.KindHB, 7, 42, 0, 0},
		{"otp-data", mkOTP(1, 2, 9000, make([]byte, 300)), wire.KindOTPData, 2, 0, 9000, 300},
		{"otp-ack", mkOTP(2, 4, 0, nil), wire.KindOTPAck, 4, 0, 0, 0},
		{"empty", nil, wire.KindNone, 0, 0, 0, 0},
		{"garbage", []byte{9, 9, 9, 9}, wire.KindNone, 0, 0, 0, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var e Event
			sniffInto(&e, c.pkt)
			if e.Proto != c.want {
				t.Fatalf("sniff = %q, want %q", e.Proto, c.want)
			}
			if e.ID != c.id || e.ADU != c.adu || e.Off != c.off {
				t.Errorf("identity = (%d, %d, %d), want (%d, %d, %d)",
					e.ID, e.ADU, e.Off, c.id, c.adu, c.off)
			}
			if c.want == wire.KindOTPData && e.Len != c.len_ {
				t.Errorf("otp data Len = %d, want payload length %d", e.Len, c.len_)
			}
		})
	}
}

func TestSniffRejectsCorrupt(t *testing.T) {
	pkt := mkALFData(3, 77, 0, 64)
	pkt[5] ^= 0xFF // damage the name; header checksum must catch it
	var e Event
	if sniffInto(&e, pkt); e.Proto != wire.KindNone {
		t.Fatalf("corrupt ALF header sniffed as %q", e.Proto)
	}
	seg := mkOTP(1, 2, 100, make([]byte, 50))
	seg[20] ^= 0xFF
	if sniffInto(&e, seg); e.Proto != wire.KindNone {
		t.Fatalf("corrupt OTP segment sniffed as %q", e.Proto)
	}
}

// TestNilTracer drives every recording and query method on a nil
// tracer: nothing may panic, and exports must still produce valid
// empty output.
func TestNilTracer(t *testing.T) {
	var tr *Tracer
	tr.SetLimit(10)
	for k := range kinds {
		tr.Emit(Kind(k), 0, 1, 0, 10, time.Millisecond)
	}
	tr.EmitTag(ADUSubmit, 0, 1, 2, 3)
	tr.PacketQueued("l", nil, 0, 0)
	tr.PacketDelivered("l", nil, 0)
	tr.PacketDropped("l", "down", nil)
	if f := tr.FaultBegan("blackout", []string{"l"}); f != 0 {
		t.Errorf("nil FaultBegan = %d, want 0", f)
	}
	tr.FaultEnded(0)
	if tr.Len() != 0 || tr.Events() != nil {
		t.Errorf("nil tracer holds events")
	}
	rep := tr.Analyze()
	if len(rep.ADUs) != 0 || len(rep.Msgs) != 0 {
		t.Errorf("nil Analyze not empty")
	}
	if err := tr.WritePerfetto(io.Discard); err != nil {
		t.Errorf("nil WritePerfetto: %v", err)
	}
}

func TestLimit(t *testing.T) {
	s := sim.NewScheduler()
	tr := New(s)
	tr.SetLimit(3)
	for i := 0; i < 10; i++ {
		tr.EmitTag(ADUSubmit, 0, uint64(i), 0, 1)
	}
	if tr.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tr.Len())
	}
	if tr.Dropped != 7 {
		t.Fatalf("Dropped = %d, want 7", tr.Dropped)
	}
}

// TestNackFlow checks the NACK → retransmission → arrival causal
// chain: all three events must share one non-zero flow id, and the
// flow must be consumed by the arrival.
func TestNackFlow(t *testing.T) {
	s := sim.NewScheduler()
	tr := New(s)
	tr.Emit(NackTX, 1, 7, 0, 0, 0)
	tr.Emit(FragRetx, 1, 7, 0, 100, 0)
	tr.Emit(FragRX, 1, 7, 0, 100, 0)

	ev := tr.Events()
	if len(ev) != 3 {
		t.Fatalf("recorded %d events, want 3", len(ev))
	}
	flow := ev[0].Flow
	if flow == 0 {
		t.Fatal("NackTX has no flow id")
	}
	if ev[1].Kind != FragRetx || ev[1].Flow != flow {
		t.Errorf("retx event = %v flow %d, want FragRetx flow %d", ev[1].Kind, ev[1].Flow, flow)
	}
	if ev[2].Flow != flow {
		t.Errorf("arrival flow = %d, want %d", ev[2].Flow, flow)
	}
	// Flow consumed: a later unrelated arrival must not reuse it.
	tr.Emit(FragRX, 1, 7, 0, 100, 0)
	if got := tr.Events()[3].Flow; got != 0 {
		t.Errorf("second arrival flow = %d, want 0 (consumed)", got)
	}
}

// TestDropStallFaultFlow checks the fault window → drop → stall chain:
// a down-drop of an OTP data segment inside a fault window carries the
// window's flow, and the stall blocked on the dropped range inherits
// it.
func TestDropStallFaultFlow(t *testing.T) {
	s := sim.NewScheduler()
	tr := New(s)
	flow := tr.FaultBegan("blackout", []string{"net/a->b/0"})
	if flow == 0 {
		t.Fatal("FaultBegan returned 0")
	}
	seg := mkOTP(1, 2, 5000, make([]byte, 1000))
	tr.PacketDropped("net/a->b/0", "down", seg)
	tr.FaultEnded(flow)
	tr.Emit(StallOpen, 2, 0, 5000, 0, 0) // receiver blocked exactly at the lost range

	var drop, stall *Event
	for i := range tr.Events() {
		e := &tr.Events()[i]
		switch e.Kind {
		case NetDrop:
			drop = e
		case StallOpen:
			stall = e
		}
	}
	if drop == nil || drop.Flow != flow {
		t.Fatalf("drop flow = %v, want fault flow %d", drop, flow)
	}
	if drop.Proto != wire.KindOTPData || drop.Off != 5000 || drop.Len != 1000 {
		t.Errorf("drop sniffed as %q [%d,+%d)", drop.Proto, drop.Off, drop.Len)
	}
	if stall == nil || stall.Flow != flow {
		t.Fatalf("stall flow = %v, want fault flow %d", stall, flow)
	}
	// A stall blocked outside any remembered range carries no flow.
	tr.PacketDropped("net/a->b/0", "line", mkOTP(1, 2, 9000, make([]byte, 100)))
	tr.Emit(StallOpen, 2, 0, 20000, 0, 0)
	last := tr.Events()[len(tr.Events())-1]
	if last.Flow != 0 {
		t.Errorf("unrelated stall flow = %d, want 0", last.Flow)
	}
}

// TestAnalyzeALF replays a hand-built ALF lifecycle with known virtual
// times and checks the reconstructed attribution.
func TestAnalyzeALF(t *testing.T) {
	s := sim.NewScheduler()
	tr := New(s)
	at := func(d sim.Duration, fn func()) { s.At(sim.Time(0).Add(d), fn) }

	// submit at 0, first tx at 1ms, arrival 5ms, nack 20ms,
	// retx arrival 30ms, delivered 31ms.
	at(0, func() { tr.EmitTag(ADUSubmit, 0, 1, 99, 2000) })
	at(1*time.Millisecond, func() {
		tr.Emit(FragTX, 0, 1, 0, 1000, time.Millisecond)
		tr.Emit(FragTX, 0, 1, 1000, 1000, time.Millisecond)
	})
	at(5*time.Millisecond, func() { tr.Emit(FragRX, 0, 1, 0, 1000, 0) })
	at(20*time.Millisecond, func() { tr.Emit(NackTX, 0, 1, 0, 0, 0) })
	at(25*time.Millisecond, func() { tr.Emit(FragRetx, 0, 1, 1000, 1000, 0) })
	at(30*time.Millisecond, func() { tr.Emit(FragRX, 0, 1, 1000, 1000, 0) })
	at(31*time.Millisecond, func() { tr.Emit(ADUDeliver, 0, 1, 0, 2000, 0) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}

	a := tr.Analyze().ADU(0, 1)
	if a == nil {
		t.Fatal("ADU (0,1) not reconstructed")
	}
	if a.Outcome != "delivered" || a.Tag != 99 || a.Size != 2000 {
		t.Errorf("outcome=%q tag=%d size=%d", a.Outcome, a.Tag, a.Size)
	}
	if a.Frags != 2 || a.Retx != 1 || a.Nacks != 1 {
		t.Errorf("frags=%d retx=%d nacks=%d, want 2/1/1", a.Frags, a.Retx, a.Nacks)
	}
	want := Attribution{
		SenderPace:     time.Millisecond,      // 0 → 1ms
		NetTransit:     4 * time.Millisecond,  // 1 → 5ms
		RetransmitWait: 10 * time.Millisecond, // nack 20 → arrival 30ms
		Reassembly:     16 * time.Millisecond, // (31-5) - 10
		Total:          31 * time.Millisecond,
	}
	if a.Attr != want {
		t.Errorf("attribution = %+v, want %+v", a.Attr, want)
	}
	if sum := a.Attr.SenderPace + a.Attr.NetTransit + a.Attr.RetransmitWait +
		a.Attr.Reassembly + a.Attr.HOLStall; sum != a.Attr.Total {
		t.Errorf("phases sum to %v, Total %v", sum, a.Attr.Total)
	}
}

// TestAnalyzeOTP replays an OTP message sequence with one gap and
// checks HOL-stall attribution: the message behind the gap pays
// RetransmitWait, the ones after it pay HOLStall.
func TestAnalyzeOTP(t *testing.T) {
	s := sim.NewScheduler()
	tr := New(s)
	at := func(d sim.Duration, fn func()) { s.At(sim.Time(0).Add(d), fn) }

	// msgs 0,1,2 of 1000 B each; segment 1 is lost and recovered late.
	at(0, func() {
		tr.Emit(MsgSubmit, 0, 0, 0, 1000, 0)
		tr.Emit(SegTX, 0, 0, 0, 1000, 0)
	})
	at(1*time.Millisecond, func() {
		tr.Emit(MsgSubmit, 0, 1, 1000, 1000, 0)
		tr.Emit(SegTX, 0, 0, 1000, 1000, 0) // lost on the wire
	})
	at(2*time.Millisecond, func() {
		tr.Emit(MsgSubmit, 0, 2, 2000, 1000, 0)
		tr.Emit(SegTX, 0, 0, 2000, 1000, 0)
	})
	at(5*time.Millisecond, func() { tr.Emit(SegDeliver, 0, 0, 0, 1000, 0) })
	at(7*time.Millisecond, func() {
		tr.Emit(SegOOO, 0, 0, 2000, 1000, 0) // msg 2 arrives out of order
		tr.Emit(StallOpen, 0, 0, 1000, 0, 0)
	})
	at(40*time.Millisecond, func() { tr.Emit(SegRetx, 0, 0, 1000, 1000, 0) })
	at(45*time.Millisecond, func() {
		tr.Emit(StallClose, 0, 0, 0, 0, 38*time.Millisecond)
		tr.Emit(SegDeliver, 0, 0, 1000, 2000, 0) // delivery drains through msg 2
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}

	rep := tr.Analyze()
	var m1, m2 *MsgTrace
	for _, m := range rep.Msgs {
		switch {
		case m.Conn == 0 && m.Index == 1:
			m1 = m
		case m.Conn == 0 && m.Index == 2:
			m2 = m
		}
	}
	if m1 == nil || m2 == nil {
		t.Fatal("messages not reconstructed")
	}
	if m1.Outcome != "delivered" || m2.Outcome != "delivered" {
		t.Fatalf("outcomes %q %q", m1.Outcome, m2.Outcome)
	}
	if m1.Retx != 1 {
		t.Errorf("msg1 retx = %d, want 1", m1.Retx)
	}
	// msg 1: first (only) arrival at 45ms is also full coverage — no
	// stall, its wait is all RetransmitWait.
	if m1.Attr.HOLStall != 0 {
		t.Errorf("msg1 HOLStall = %v, want 0", m1.Attr.HOLStall)
	}
	// msg 2: all bytes arrived at 7ms, deliverable only at 45ms.
	if want := 38 * time.Millisecond; m2.Attr.HOLStall != want {
		t.Errorf("msg2 HOLStall = %v, want %v", m2.Attr.HOLStall, want)
	}
	if len(rep.Stalls) != 1 {
		t.Fatalf("stalls = %d, want 1", len(rep.Stalls))
	}
	st := rep.Stalls[0]
	if st.Begin != sim.Time(0).Add(7*time.Millisecond) || st.End != sim.Time(0).Add(45*time.Millisecond) {
		t.Errorf("stall [%v, %v]", st.Begin, st.End)
	}
}

// TestKindStrings walks the kinds table: every Kind constant has a row
// with a timeline name no other kind uses and one of the five track
// families, String reads that row, and Emit draws the kind on a track
// of that family. (A row for a kind that does not exist fails to
// compile: the table's length is numKinds.)
func TestKindStrings(t *testing.T) {
	byID := map[family]bool{famSender: true, famReceiver: true, famOTP: true}
	known := map[family]bool{famLink: true, famFaults: true}
	tr := New(sim.NewScheduler())
	names := map[string]Kind{}
	for k := Kind(1); k < numKinds; k++ {
		row := kinds[k]
		if row.name == "" {
			t.Errorf("Kind %d has no kinds row", k)
			continue
		}
		if prev, dup := names[row.name]; dup {
			t.Errorf("Kind %d and %d are both named %q", prev, k, row.name)
		}
		names[row.name] = k
		if got := k.String(); got != row.name {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, row.name)
		}
		switch {
		case byID[row.fam]:
			tr.Emit(k, 3, 0, 0, 0, 0)
			if got, want := tr.Events()[tr.Len()-1].Track, string(row.fam)+"3"; got != want {
				t.Errorf("%v emitted on track %q, want %q", k, got, want)
			}
		case !known[row.fam]:
			t.Errorf("%v has unknown track family %q", k, row.fam)
		}
	}
	for _, k := range []Kind{0, numKinds, 200} {
		if got, want := k.String(), fmt.Sprintf("kind-%d", k); got != want {
			t.Errorf("unknown kind = %q, want %q", got, want)
		}
	}
}

// TestNackFlowClosedOnLoss: a NACK nothing ever answers must not stay
// in the tracer for its lifetime. The flow closes when the name is
// settled — lost, expired or (through FEC, with no fragment of that
// name arriving) delivered — and a tracer whose buffer is full opens
// none at all.
func TestNackFlowClosedOnLoss(t *testing.T) {
	tr := New(sim.NewScheduler())
	for i, settle := range []Kind{ADULoss, ADUExpire, ADUDeliver} {
		name := uint64(i)
		tr.Emit(NackTX, 1, name, 0, 0, 0)
		if len(tr.pendingNack) != 1 {
			t.Fatalf("NACK of %d opened %d flows, want 1", name, len(tr.pendingNack))
		}
		tr.Emit(settle, 1, name, 0, 0, 0)
		if len(tr.pendingNack) != 0 {
			t.Errorf("%v left the NACK flow of ADU %d open", settle, name)
		}
	}
	tr.SetLimit(tr.Len())
	tr.Emit(NackTX, 1, 9, 0, 0, 0)
	if len(tr.pendingNack) != 0 {
		t.Errorf("a full tracer opened a flow")
	}
	if tr.Dropped != 1 {
		t.Errorf("Dropped = %d, want 1", tr.Dropped)
	}
}
