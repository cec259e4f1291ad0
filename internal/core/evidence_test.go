package alf

import (
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/wire"
	"repro/internal/xcode"
)

// evidencePair is a pair on a 1 ms round trip with NackDelay 20 ms whose
// data path drops each fragment that drop, shown it, returns true for.
// at records when each ADU was delivered.
type evidencePair struct {
	*pair
	t    *testing.T
	fp   int // fragment payload
	drop func(h *wire.Header, pkt []byte) bool
	at   map[uint64]sim.Time
}

func newEvidencePair(t *testing.T, cfg Config) *evidencePair {
	t.Helper()
	cfg.NackDelay, cfg.NackInterval = 20*time.Millisecond, 20*time.Millisecond
	e := &evidencePair{pair: newPair(t, netsim.LinkConfig{Delay: 500 * time.Microsecond}, cfg, 1), t: t, at: map[uint64]sim.Time{}}
	e.fp = e.rcv.cfg.grid.fp
	reinstallReceiver(e.pair, func(pkt []byte) {
		if h, err := wire.ParseHeader(pkt); err == nil && e.drop != nil && e.drop(&h, pkt) {
			return
		}
		_ = e.rcv.HandlePacket(pkt)
	})
	e.rcv.OnADU = func(a ADU) { e.at[a.Name] = e.sched.Now(); a.Release() }
	return e
}

// send submits ADUs of four fragments and runs the stream for 100 ms;
// it returns when they were submitted.
func (e *evidencePair) send(names ...uint64) sim.Time {
	at := e.sched.Now()
	for _, name := range names {
		if _, err := e.snd.Send(name, xcode.SyntaxRaw, payload(4*e.fp, byte(name))); err != nil {
			e.t.Fatal(err)
		}
	}
	_ = e.sched.RunFor(100 * time.Millisecond)
	return at
}

// dropOnce drops the first copy of the second fragment of each name in
// names: the original goes, its resend passes.
func (e *evidencePair) dropOnce(names ...uint64) {
	dropped := map[uint64]bool{}
	e.drop = func(h *wire.Header, _ []byte) bool {
		for _, name := range names {
			if h.Name == name && h.FragOff == e.fp && !dropped[name] {
				dropped[name] = true
				return true
			}
		}
		return false
	}
}

// warm repairs ADU 0, which loses a fragment before any round trip is
// measured: its request waits NackDelay, and its resend times the
// repair round trip.
func (e *evidencePair) warm(t *testing.T) {
	t.Helper()
	e.dropOnce(0)
	if sent := e.send(0, 1); e.at[0].Sub(sent) < e.rcv.cfg.NackDelay {
		t.Fatalf("ADU 0 repaired in %v with no measured round trip, under NackDelay", e.at[0].Sub(sent))
	}
	if e.rcv.Stats.EarlyNacks != 0 || e.rcv.repair == nil || e.rcv.repair.SRTT == 0 {
		t.Fatalf("after the first repair: %d early NACKs, estimate %+v", e.rcv.Stats.EarlyNacks, e.rcv.repair)
	}
}

// TestEvidenceNackBeforeNackDelay: once one repair has measured the
// round trip, a fragment lost mid-ADU is requested as soon as the next
// ADU proves it lost and that round trip has passed, not after
// NackDelay; but evidence at most halves the hold, so on this path,
// whose estimate is far under NackDelay/2, the request waits that long.
func TestEvidenceNackBeforeNackDelay(t *testing.T) {
	e := newEvidencePair(t, Config{})
	e.warm(t)
	e.dropOnce(2)
	sent := e.send(2, 3)
	nd := e.rcv.cfg.NackDelay
	if got := e.at[2].Sub(sent); got < nd/2 || got >= nd {
		t.Fatalf("ADU 2 repaired %v after submission, want from NackDelay/2 to NackDelay %v (estimate %+v)", got, nd, *e.rcv.repair)
	}
	if e.rcv.Stats.EarlyNacks != 1 || e.snd.Stats.ResentADUs != 2 {
		t.Errorf("%d early NACKs and %d resends, want 1 and 2", e.rcv.Stats.EarlyNacks, e.snd.Stats.ResentADUs)
	}
}

// TestEvidenceNackBacksOff: the path slows after the round trip was
// measured, and the resend of an early request is lost too. The
// request goes unanswered for a repair round trip, so the estimate
// doubles, as OTP's timeout does; the next answer re-derives it.
func TestEvidenceNackBacksOff(t *testing.T) {
	e := newEvidencePair(t, Config{})
	e.warm(t)
	warm := e.rcv.repair.RTO
	slow := netsim.LinkConfig{Delay: 4 * time.Millisecond}
	e.ab.UpdateConfig(slow)
	e.ba.UpdateConfig(slow)
	first := true
	e.drop = func(h *wire.Header, _ []byte) bool {
		if h.Name != 2 {
			return false
		}
		if h.FragOff == e.fp {
			first = false
		}
		return !first // the original's second fragment and every resend
	}
	e.send(2, 3)
	if e.rcv.Stats.EarlyNacks != 1 {
		t.Fatalf("%d early NACKs, want 1", e.rcv.Stats.EarlyNacks)
	}
	if got := e.rcv.repair.RTO; got < 2*warm {
		t.Fatalf("estimate %v after an unanswered early request, want at least twice the warm %v", got, warm)
	}
	e.drop = nil
	_ = e.sched.RunFor(time.Second)
	if _, ok := e.at[2]; !ok {
		t.Fatal("ADU 2 never repaired")
	}
}

// TestForgedDupKeepsNackDelay: under SuiteAEAD a duplicate times the
// repair only if its tag verifies. Forged duplicates that arrive right
// after a request, before any resend could, leave the estimate unset,
// and the next loss still waits NackDelay.
func TestForgedDupKeepsNackDelay(t *testing.T) {
	e := newEvidencePair(t, Config{Suite: SuiteAEAD, Key: 0xF00D})
	var first []byte // ADU 0's first fragment as it arrived
	dropped := false
	e.drop = func(h *wire.Header, pkt []byte) bool {
		switch {
		case h.Name == 0 && h.FragOff == 0 && first == nil:
			first = pkt
		case h.Name == 0 && h.FragOff == e.fp && !dropped:
			dropped = true
			return true
		}
		return false
	}
	// Every request is answered at once by forgeries, and never by the
	// sender.
	forged := 0
	e.a.SetHandler(func(pk *netsim.Packet) {
		c, err := wire.ParseControl(pk.Payload)
		if err != nil || len(c.Nacks) == 0 {
			_ = e.snd.HandleControl(pk.Payload)
			return
		}
		for i := 0; i < 3; i++ {
			bad := append([]byte(nil), first...)
			bad[len(bad)-1-i] ^= 0x5A
			if err := e.rcv.HandlePacket(bad); err != nil {
				t.Fatal(err)
			}
			forged++
		}
	})
	e.send(0, 1)
	if forged == 0 || e.rcv.Stats.DupFragments < int64(forged) {
		t.Fatalf("%d forgeries sent, %d duplicates counted", forged, e.rcv.Stats.DupFragments)
	}
	if r := e.rcv.repair; r != nil {
		t.Fatalf("forged duplicates set the estimate: %+v", *r)
	}
	e.dropOnce(2)
	e.send(2, 3)
	if e.rcv.Stats.EarlyNacks != 0 {
		t.Errorf("%d early NACKs with no verified round trip", e.rcv.Stats.EarlyNacks)
	}
}

// TestReorderKeepsResends is the reorder arm: 5 % of fragments held back
// by up to 10 ms, under NackDelay, and nothing lost. Without a measured
// round trip evidence never shortens a request, so reordering alone
// resends no more than it did before evidence timing (none).
func TestReorderKeepsResends(t *testing.T) {
	cfg := Config{RateBps: 50e6, NackDelay: 20 * time.Millisecond, NackInterval: 20 * time.Millisecond}
	p := newPair(t, netsim.LinkConfig{Delay: 500 * time.Microsecond, ReorderProb: 0.05, ReorderDelay: 10 * time.Millisecond}, cfg, 5)
	const n = 400
	for i := 0; i < n; i++ {
		p.snd.Send(uint64(i), xcode.SyntaxRaw, payload(4000, byte(i)))
	}
	_ = p.sched.Run()
	if len(p.adus) != n || p.ab.Stats.Reordered == 0 {
		t.Fatalf("delivered %d of %d with %d fragments reordered", len(p.adus), n, p.ab.Stats.Reordered)
	}
	if got := p.snd.Stats.ResentADUs; got > 0 {
		t.Errorf("%d ADUs resent under reordering alone, want 0 as before evidence timing (%d reordered, %d early NACKs)",
			got, p.ab.Stats.Reordered, p.rcv.Stats.EarlyNacks)
	}
}
