package layered

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/otp"
	"repro/internal/sim"
	"repro/internal/xcode"
)

type rig struct {
	sched *sim.Scheduler
	snd   *Stack
	rcv   *Stack
	got   []xcode.Value
	errs  []error
}

func newRig(t *testing.T, linkCfg netsim.LinkConfig, codec xcode.Codec, key uint64, seed int64) *rig {
	t.Helper()
	s := sim.NewScheduler()
	n := netsim.New(s, seed)
	a := n.NewNode("a")
	b := n.NewNode("b")
	ab, ba := n.NewDuplex(a, b, linkCfg)

	ca, cb := otp.Connect(s, a, b, ab, ba, otp.Config{}, otp.Config{})

	r := &rig{sched: s}
	r.snd = New(ca, codec, key)
	r.rcv = New(cb, codec, key)
	r.rcv.OnValue = func(v xcode.Value) { r.got = append(r.got, v) }
	r.rcv.OnError = func(err error) { r.errs = append(r.errs, err) }
	return r
}

func ints(n int) []int32 {
	vs := make([]int32, n)
	for i := range vs {
		vs[i] = int32(uint32(i)*2654435761 + 12345)
	}
	return vs
}

func TestValueRoundtripAllCodecs(t *testing.T) {
	for _, c := range xcode.Codecs() {
		r := newRig(t, netsim.LinkConfig{Delay: time.Millisecond}, c, 0, 1)
		want := []xcode.Value{
			xcode.BytesValue(bytes.Repeat([]byte{7}, 5000)),
			xcode.Int32sValue(ints(1000)),
			xcode.StringValue("layered stack"),
			xcode.Int32Value(-42),
		}
		for _, v := range want {
			if err := r.snd.SendValue(v); err != nil {
				t.Fatalf("%s: %v", c.Name(), err)
			}
		}
		r.sched.Run()
		if len(r.errs) != 0 {
			t.Fatalf("%s: errors %v", c.Name(), r.errs)
		}
		if len(r.got) != len(want) {
			t.Fatalf("%s: received %d of %d", c.Name(), len(r.got), len(want))
		}
		for i := range want {
			if !r.got[i].Equal(want[i]) {
				t.Errorf("%s value %d mismatch", c.Name(), i)
			}
		}
	}
}

func TestEncryptedSession(t *testing.T) {
	r := newRig(t, netsim.LinkConfig{Delay: time.Millisecond}, xcode.BER{}, 0xFEED, 1)
	want := xcode.Int32sValue(ints(500))
	r.snd.SendValue(want)
	r.snd.SendValue(xcode.StringValue("second record"))
	r.sched.Run()
	if len(r.got) != 2 || !r.got[0].Equal(want) {
		t.Fatalf("encrypted session failed: %d values", len(r.got))
	}
	if r.got[1].Str != "second record" {
		t.Error("second record wrong (per-record keystream misaligned?)")
	}
}

func TestOrderPreservedUnderLoss(t *testing.T) {
	// The layered stack inherits otp's strict ordering: values arrive
	// in send order even on a lossy link.
	r := newRig(t, netsim.LinkConfig{Delay: time.Millisecond, LossProb: 0.05},
		xcode.XDR{}, 0, 3)
	const n = 100
	for i := 0; i < n; i++ {
		r.snd.SendValue(xcode.Int32Value(int32(i)))
	}
	r.sched.Run()
	if len(r.got) != n {
		t.Fatalf("received %d of %d", len(r.got), n)
	}
	for i, v := range r.got {
		if v.I64 != int64(i) {
			t.Fatalf("order violated at %d: %d", i, v.I64)
		}
	}
}

func TestRecordsSpanSegments(t *testing.T) {
	// A 50 KB record crosses many MSS-sized segments and must
	// reassemble exactly.
	r := newRig(t, netsim.LinkConfig{Delay: time.Millisecond}, xcode.Raw{}, 0, 1)
	data := bytes.Repeat([]byte{0xA5}, 50_000)
	r.snd.SendValue(xcode.BytesValue(data))
	r.sched.Run()
	if len(r.got) != 1 || !bytes.Equal(r.got[0].Bytes, data) {
		t.Fatal("large record corrupted")
	}
}

func TestManySmallRecordsCoalesced(t *testing.T) {
	// Many small records pack into single segments; the record layer
	// must carve them back apart.
	r := newRig(t, netsim.LinkConfig{Delay: time.Millisecond}, xcode.BER{}, 0, 1)
	const n = 500
	for i := 0; i < n; i++ {
		r.snd.SendValue(xcode.Int32Value(int32(i)))
	}
	r.sched.Run()
	if len(r.got) != n {
		t.Fatalf("received %d of %d", len(r.got), n)
	}
}

func TestOversizeRecordRejected(t *testing.T) {
	r := newRig(t, netsim.LinkConfig{Delay: time.Millisecond}, xcode.Raw{}, 0, 1)
	r.rcv.MaxRecord = 100
	r.snd.SendValue(xcode.BytesValue(make([]byte, 200)))
	r.sched.Run()
	if r.rcv.Stats.RecordsTooBig != 1 {
		t.Errorf("RecordsTooBig = %d", r.rcv.Stats.RecordsTooBig)
	}
	if len(r.errs) == 0 {
		t.Error("no error surfaced")
	}
}

func TestStatsAndAccessors(t *testing.T) {
	r := newRig(t, netsim.LinkConfig{Delay: time.Millisecond}, xcode.BER{}, 0, 1)
	r.snd.SendValue(xcode.Int32sValue(ints(100)))
	r.sched.Run()
	if r.snd.Stats.ValuesSent != 1 || r.snd.Stats.BytesEncoded == 0 {
		t.Errorf("send stats: %+v", r.snd.Stats)
	}
	if r.rcv.Stats.ValuesReceived != 1 {
		t.Errorf("recv stats: %+v", r.rcv.Stats)
	}
	if r.snd.Codec().Name() != "ber" || r.snd.conn == nil {
		t.Error("accessors wrong")
	}
}

func TestDecodeErrorDoesNotKillStream(t *testing.T) {
	// Corrupt one record at the presentation level (valid framing,
	// invalid BER): the next record must still decode.
	r := newRig(t, netsim.LinkConfig{Delay: time.Millisecond}, xcode.BER{}, 0, 1)

	// Hand-built records straight onto the connection: one garbage,
	// one valid.
	bad := []byte{0, 0, 0, 3, 0xFF, 0xFF, 0xFF}
	good, _ := (xcode.BER{}).EncodeValue(nil, xcode.Int32Value(7))
	rec := make([]byte, 4+len(good))
	rec[3] = byte(len(good))
	copy(rec[4:], good)
	r.snd.conn.Send(bad)
	r.snd.conn.Send(rec)
	r.sched.Run()

	if len(r.errs) != 1 {
		t.Fatalf("errors = %v", r.errs)
	}
	if len(r.got) != 1 || r.got[0].I64 != 7 {
		t.Fatalf("good record lost after decode error: %v", r.got)
	}
}
