package relay_test

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/relay"
	"repro/internal/sim"
	"repro/internal/wire"
)

// FuzzRelay feeds arbitrary frames to a custody relay from both sides,
// as a hostile or corrupted path would deliver them. The input is a
// list of frames, each [side][length][length bytes]: an even side byte
// arrives from upstream, an odd one from downstream, and side>>1
// milliseconds pass before the next, so the relay's ack, poll and retry
// timers fire between arrivals. Nothing may panic, and the custody
// store must stay within its bound, now and at its peak. The seeds hold
// every frame type well formed — an ADU in two fragments, a Critical
// one, parity, NACKs, a cumulative release, a downstream custody ack —
// so the corpus starts on the custody paths and not only on BadFrames.
func FuzzRelay(f *testing.F) {
	const limit = 512
	frag := func(name uint64, off, n int, flags wire.Flags) []byte {
		h := wire.Header{Stream: 1, Name: name, Flags: flags, TotalLen: 160, FragOff: off, FragLen: n}
		pkt := make([]byte, wire.HeaderSize+n+flags.Trailer())
		wire.PutHeader(pkt, &h)
		return pkt
	}
	// up and down wrap one frame arriving from that side, 2 ms before
	// the next.
	up := func(pkt []byte) []byte { return append([]byte{2 << 1, byte(len(pkt))}, pkt...) }
	down := func(pkt []byte) []byte { return append([]byte{1 | 2<<1, byte(len(pkt))}, pkt...) }
	frames := func(fs ...[]byte) []byte { return bytes.Join(fs, nil) }
	f.Add([]byte{})
	f.Add([]byte{0, 3, 1, 2, 3, 1, 1, 0xFF})
	f.Add(frames(
		up(frag(0, 0, 80, 0)), up(wire.EncodeHeartbeat(nil, 1, 1)), up(frag(0, 80, 80, 0)),
		down(wire.EncodeControl(nil, &wire.Control{Stream: 1, Nacks: []uint64{0}})),
		up(frag(1, 0, 160, wire.FlagCritical)), up(frag(2, 0, 160, wire.FlagParity)),
		down(wire.EncodeCustody(&wire.CustodyAck{Stream: 1, Relay: 2, Cum: 1})),
		up(frag(3, 0, 160, 0)), up(frag(4, 0, 160, 0)), up(frag(4, 0, 160, 0)),
		down(wire.EncodeFeedback(nil, 1, 1, 100, 80)),
		down(wire.EncodeControl(nil, &wire.Control{Stream: 1, Cum: 4, Nacks: []uint64{4}})),
	))
	f.Fuzz(func(t *testing.T, in []byte) {
		s := sim.NewScheduler()
		net := netsim.New(s, 1)
		src, rly, dst := net.NewNode("src"), net.NewNode("rly"), net.NewNode("dst")
		link := netsim.LinkConfig{RateBps: 100e6, Delay: time.Millisecond}
		su, us := net.NewDuplex(src, rly, link)
		rd, dr := net.NewDuplex(rly, dst, link)
		r, err := relay.New(s, rly, us, rd, relay.Config{
			StorageLimit:  limit,
			CustodyTimer:  5 * time.Millisecond,
			RetryInterval: 40 * time.Millisecond,
			HealPoll:      10 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		check := func() {
			if n := r.StoredBytes(); n > limit {
				t.Fatalf("custody store holds %d bytes, bound is %d", n, limit)
			}
			if n := r.Stats.MaxStoredBytes; n > limit {
				t.Fatalf("custody store peaked at %d bytes, bound is %d", n, limit)
			}
		}
		for len(in) >= 2 {
			side, n := in[0], int(in[1])
			in = in[2:]
			n = min(n, len(in))
			pkt := in[:n]
			in = in[n:]
			from := su
			if side&1 != 0 {
				from = dr
			}
			_ = from.Send(pkt)
			s.RunFor(sim.Duration(side>>1) * time.Millisecond)
			check()
		}
		s.RunFor(time.Second)
		check()
	})
}
