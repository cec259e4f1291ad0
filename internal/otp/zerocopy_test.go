package otp

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/buf"
	"repro/internal/netsim"
)

// TestSendRefZeroCopy runs a lossy transfer over the zero-copy handoff
// (the connection's send -> netsim.SendRefVia) with a private pool on
// every stage, and checks that the stream still arrives intact and
// that every pooled buffer the endpoints and the network took was
// returned: the recycling loop closes even across retransmissions,
// out-of-order buffering, and line drops.
func TestSendRefZeroCopy(t *testing.T) {
	pool := buf.NewPool()
	p := newPair(t, netsim.LinkConfig{RateBps: 1e7, Delay: 2 * time.Millisecond, LossProb: 0.05},
		Config{Pool: pool, FastRetransmit: true}, 7)
	p.net.SetPool(pool)
	snd, rcv := p.sender, p.receiver

	data := pattern(200_000)
	if err := snd.Send(data); err != nil {
		t.Fatal(err)
	}
	if err := p.sched.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p.got.Bytes(), data) {
		t.Fatalf("received %d bytes, mismatch", p.got.Len())
	}
	if rcv.Stats.OutOfOrder == 0 || snd.Stats.Retransmits == 0 {
		t.Fatalf("loss did not exercise recovery: ooo=%d retx=%d",
			rcv.Stats.OutOfOrder, snd.Stats.Retransmits)
	}
	st := pool.Stats()
	if st.Gets != st.Puts {
		t.Fatalf("pool leak: %d gets, %d puts", st.Gets, st.Puts)
	}
}

// TestSegmentReuseAfterSend documents the ownership rule: once a
// segment is handed to its send function the connection holds no
// reference, and the network's copy is isolated from later pool reuse.
func TestSegmentReuseAfterSend(t *testing.T) {
	pool := buf.NewPool()
	p := newPair(t, netsim.LinkConfig{Delay: time.Millisecond}, Config{Pool: pool}, 1)
	p.net.SetPool(pool)
	snd := p.sender

	// Two writes: the second reuses the pooled segment buffer the first
	// released. If ownership were violated the first payload would be
	// scribbled before the wire copy completes.
	d1, d2 := pattern(900), pattern(900)
	for i := range d2 {
		d2[i] ^= 0xFF
	}
	if err := snd.Send(d1); err != nil {
		t.Fatal(err)
	}
	if err := snd.Send(d2); err != nil {
		t.Fatal(err)
	}
	if err := p.sched.Run(); err != nil {
		t.Fatal(err)
	}
	want := append(append([]byte(nil), d1...), d2...)
	if !bytes.Equal(p.got.Bytes(), want) {
		t.Fatalf("stream corrupted: got %d bytes", p.got.Len())
	}
}
