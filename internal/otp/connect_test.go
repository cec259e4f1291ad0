package otp

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/buf"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// TestConnect holds Connect's wiring over a direct duplex and over a
// routed path (a -> r -> b): every segment, data or ACK, reaches the
// other end in the buffer its connection built, with no copy into the
// network's pool, and a bit error on that path is caught by the
// checksum and repaired from the sender's intact send buffer.
func TestConnect(t *testing.T) {
	for _, routed := range []bool{false, true} {
		s := sim.NewScheduler()
		n := netsim.New(s, 1)
		netPool := buf.NewPool()
		n.SetPool(netPool)
		a, b := n.NewNode("a"), n.NewNode("b")
		lc := netsim.LinkConfig{Delay: time.Millisecond}
		var ab, ba *netsim.Link
		if routed {
			r := n.NewRouter("r")
			var ra, rb *netsim.Link
			ab, ra = n.NewDuplex(a, r.Node, lc)
			rb, ba = n.NewDuplex(r.Node, b, lc)
			r.AddRoute(a, ra)
			r.AddRoute(b, rb)
		} else {
			ab, ba = n.NewDuplex(a, b, lc)
		}
		cfg := Config{MSS: 500}
		snd, rcv := Connect(s, a, b, ab, ba, cfg, cfg)
		var got bytes.Buffer
		rcv.OnData = func(d []byte) { got.Write(d) }

		// Half the stream clean, half through a first hop that flips
		// bits in every segment it carries.
		data := pattern(4000)
		snd.Send(data[:2000])
		s.Run()
		lc.BitErrorRate = 1
		ab.UpdateConfig(lc)
		snd.Send(data[2000:])
		s.RunUntil(s.Now())
		lc.BitErrorRate = 0
		ab.UpdateConfig(lc)
		s.Run()

		if !bytes.Equal(got.Bytes(), data) {
			t.Fatalf("routed=%v: received %d bytes, mismatch", routed, got.Len())
		}
		if ab.Stats.Corrupted == 0 || rcv.Stats.ChecksumDrops == 0 || snd.Stats.Retransmits == 0 {
			t.Errorf("routed=%v: corrupted %d, checksum drops %d, retransmits %d: damage not caught and repaired",
				routed, ab.Stats.Corrupted, rcv.Stats.ChecksumDrops, snd.Stats.Retransmits)
		}
		if rcv.Stats.AcksSent == 0 || snd.Stats.ChecksumDrops != 0 || snd.Stats.BadAcks != 0 || !snd.Idle() {
			t.Errorf("routed=%v: ACKs did not come back whole: receiver %+v, sender %+v", routed, rcv.Stats, snd.Stats)
		}
		if gets := netPool.Stats().Gets; gets != 0 {
			t.Errorf("routed=%v: network copied %d segments into its pool", routed, gets)
		}
	}
}
