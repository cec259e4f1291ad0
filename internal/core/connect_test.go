package alf

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/buf"
	"repro/internal/netsim"
	"repro/internal/xcode"
)

// TestConnect holds Connect's wiring over a direct duplex and over a
// routed path (a -> r -> b): data reaches b sharing the sender's
// retained buffer, with no copy into the network's pool; heartbeats and
// control frames reach the other end intact; and a bit error on the
// shared path is caught and repaired while the retained copy stays as
// it was.
func TestConnect(t *testing.T) {
	for name, mk := range map[string]func(testing.TB, netsim.LinkConfig, Config, int64) *pair{
		"direct": newPair, "routed": newRoutedPair,
	} {
		t.Run(name, func(t *testing.T) {
			cfg := Config{MTU: 256 + HeaderSize, NackDelay: 5 * time.Millisecond,
				NackInterval: 5 * time.Millisecond, HeartbeatInterval: 5 * time.Millisecond}
			p := mk(t, netsim.LinkConfig{Delay: time.Millisecond}, cfg, 1)
			netPool := buf.NewPool()
			p.net.SetPool(netPool)

			// A clean ADU: its fragments are in flight by reference.
			if _, err := p.snd.Send(0, xcode.SyntaxRaw, payload(500, 1)); err != nil {
				t.Fatal(err)
			}
			for _, f := range p.snd.retained(0).frags {
				if !f.ref.Shared() {
					t.Fatal("fragment in flight does not share the sender's retained buffer")
				}
			}
			if gets := netPool.Stats().Gets; gets != 0 {
				t.Fatalf("network copied data: %d pool gets", gets)
			}
			p.sched.RunUntil(p.sched.Now())

			// A damaged ADU: every fragment takes a bit error as it
			// leaves the first hop. Hold its retained buffers to check
			// them once the run is over.
			lc := p.ab.Config()
			lc.BitErrorRate = 1
			p.ab.UpdateConfig(lc)
			if _, err := p.snd.Send(1, xcode.SyntaxRaw, payload(500, 2)); err != nil {
				t.Fatal(err)
			}
			var held []*buf.Ref
			var want [][]byte
			for _, f := range p.snd.retained(1).frags {
				held = append(held, f.ref.Retain())
				want = append(want, append([]byte(nil), f.ref.Bytes()...))
			}
			p.sched.RunUntil(p.sched.Now())
			lc.BitErrorRate = 0
			p.ab.UpdateConfig(lc)
			p.sched.Run()

			if len(p.adus) != 2 {
				t.Fatalf("delivered %d of 2 ADUs", len(p.adus))
			}
			for _, a := range p.adus {
				if !bytes.Equal(a.Data, payload(500, byte(a.Name+1))) {
					t.Fatalf("ADU %d delivered damaged", a.Name)
				}
			}
			if p.ab.Stats.Corrupted == 0 || p.snd.Stats.ResentADUs == 0 {
				t.Fatalf("corrupted %d, resent %d: the damage was not exercised and repaired",
					p.ab.Stats.Corrupted, p.snd.Stats.ResentADUs)
			}
			for i, r := range held {
				if !bytes.Equal(r.Bytes(), want[i]) {
					t.Errorf("retained fragment %d changed on the wire", i)
				}
				r.Release()
			}

			// Heartbeats and control went the other ways, whole; the
			// network's pool copied those and nothing else.
			s, r := p.snd.Stats, p.rcv.Stats
			if s.Heartbeats == 0 || r.Heartbeats != s.Heartbeats {
				t.Errorf("heartbeats: %d sent, %d processed", s.Heartbeats, r.Heartbeats)
			}
			if r.CtrlSent == 0 || s.CtrlReceived != r.CtrlSent || s.CtrlDropped != 0 {
				t.Errorf("control: %d sent, %d received, %d dropped", r.CtrlSent, s.CtrlReceived, s.CtrlDropped)
			}
			if gets := netPool.Stats().Gets; gets != s.Heartbeats+r.CtrlSent {
				t.Errorf("network pool gets %d, want %d (heartbeats + control)", gets, s.Heartbeats+r.CtrlSent)
			}
		})
	}
}
