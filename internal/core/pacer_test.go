package alf

import (
	"errors"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/wire"
	"repro/internal/xcode"
)

// emission is one data-plane wire handoff as seen by the test sink.
type emission struct {
	at   sim.Time
	name uint64
	off  int
}

// pacerRig builds a paced sender whose wire sink records every DATA
// emission with its virtual timestamp.
func pacerRig(t *testing.T, cfg Config) (*sim.Scheduler, *Sender, *[]emission) {
	t.Helper()
	s := sim.NewScheduler()
	log := &[]emission{}
	snd, err := testSender(s, func(p []byte) error {
		if wire.TypeOf(p) != wire.TypeData {
			return nil // heartbeats are control-plane, not paced
		}
		h, err := wire.ParseHeader(p)
		if err != nil {
			t.Fatalf("sink got malformed data packet: %v", err)
		}
		*log = append(*log, emission{at: s.Now(), name: h.Name, off: h.FragOff})
		return nil
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, snd, log
}

// TestPacerPriorityBypass: a retransmission must reach the wire
// immediately, ahead of first-transmission fragments the pacer has
// already booked into the future.
func TestPacerPriorityBypass(t *testing.T) {
	t.Run("SendRef", func(t *testing.T) {
		s, snd, log := pacerRig(t, Config{Policy: SenderBuffered, RateBps: 1e6})

		if _, err := snd.Send(0, xcode.SyntaxRaw, payload(512, 1)); err != nil {
			t.Fatal(err)
		}
		if _, err := snd.Send(1, xcode.SyntaxRaw, payload(8192, 2)); err != nil {
			t.Fatal(err)
		}
		if snd.Backlog() <= 0 {
			t.Fatal("pacer not backlogged; rig broken")
		}
		snd.resend(0) // priority: must not queue behind ADU 1

		retxAt := sim.Time(-1)
		for _, e := range (*log)[1:] { // entry 0 is ADU 0's first transmission
			if e.name == 0 {
				retxAt = e.at
			}
		}
		if retxAt != s.Now() {
			t.Fatalf("retransmission paced to %v, want immediate (%v)", retxAt, s.Now())
		}

		s.Run()
		paced := 0
		for _, e := range *log {
			if e.name == 1 && e.at > retxAt {
				paced++
			}
		}
		if paced == 0 {
			t.Error("no ADU-1 fragment was emitted after the bypassing retransmission")
		}
		if snd.Stats.ResentFrags == 0 {
			t.Error("no retransmitted fragments counted")
		}
	})
}

// TestPacerMonotonicAcrossSetRate: changing the rate mid-stream (by
// hand or by a controller) must never schedule a fragment earlier than
// one already committed — wire emission times stay non-decreasing, and
// every fragment emitted after a change is paced at the new rate.
func TestPacerMonotonicAcrossSetRate(t *testing.T) {
	t.Run("SendRef", func(t *testing.T) {
		s, snd, log := pacerRig(t, Config{Policy: NoRetransmit, RateBps: 2e5, HeartbeatLimit: 1})

		data := payload(1000, 3)
		for i := 0; i < 30; i++ {
			tag := uint64(i)
			s.After(time.Duration(i)*2*time.Millisecond, func() {
				if _, err := snd.Send(tag, xcode.SyntaxRaw, data); err != nil {
					t.Fatal(err)
				}
			})
		}
		// Speed up mid-stream (a shallower backlog must not reorder
		// already-booked fragments), then slam down to a crawl.
		s.After(20*time.Millisecond, func() { snd.SetRate(8e6) })
		s.After(40*time.Millisecond, func() { snd.SetRate(5e4) })
		s.Run()

		if len(*log) != 30 {
			t.Fatalf("emitted %d fragments, want 30", len(*log))
		}
		for i := 1; i < len(*log); i++ {
			if (*log)[i].at < (*log)[i-1].at {
				t.Fatalf("emission %d (ADU %d) at %v precedes emission %d at %v",
					i, (*log)[i].name, (*log)[i].at, i-1, (*log)[i-1].at)
			}
		}
		if last := (*log)[len(*log)-1]; last.name != 29 {
			t.Errorf("final emission is ADU %d, want 29", last.name)
		}
	})
}

// TestFeedbackShedZeroAlloc extends the steady-state allocation guard
// to the new overload hot paths: accepting a feedback report (parse,
// RateSample, controller step, rate change) and shedding a Droppable
// ADU must not allocate.
func TestFeedbackShedZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	s := sim.NewScheduler()
	snd, err := testSender(s, func([]byte) error { return nil }, Config{
		Policy:           NoRetransmit,
		RateBps:          1e5,
		FeedbackInterval: 50 * time.Millisecond,
		Controller:       &AIMD{Floor: 1e4, Ceil: 1e6},
		ShedBacklog:      time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Book the pacer far into the (frozen) future so every Droppable
	// submission sheds.
	data := payload(4096, 4)
	if _, err := snd.Send(0, xcode.SyntaxRaw, data); err != nil {
		t.Fatal(err)
	}
	if snd.Backlog() <= snd.cfg.ShedBacklog {
		t.Fatal("rig not backlogged")
	}

	var fb [wire.FeedbackSize]byte
	seq := uint32(0)
	recvd := uint64(0)
	iter := func() {
		seq++
		recvd += 1000
		if err := snd.HandleControl(wire.EncodeFeedback(fb[:0], 0, seq, recvd, recvd)); err != nil {
			t.Fatal(err)
		}
		if _, err := snd.SendClass(7, xcode.SyntaxRaw, data, Droppable); !errors.Is(err, ErrShed) {
			t.Fatal("Droppable not shed")
		}
	}
	for i := 0; i < 8; i++ {
		iter()
	}
	if allocs := testing.AllocsPerRun(100, iter); allocs != 0 {
		t.Fatalf("feedback+shed path allocates %v allocs/op, want 0", allocs)
	}
	if snd.Stats.FeedbackRecv == 0 || snd.Stats.ShedADUs == 0 {
		t.Fatalf("hot path did not run: feedback=%d shed=%d", snd.Stats.FeedbackRecv, snd.Stats.ShedADUs)
	}
}

// TestReceiverFeedbackZeroAlloc: the receiver's periodic report
// (encodeFeedback into the reused scratch buffer) must not allocate.
func TestReceiverFeedbackZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	s := sim.NewScheduler()
	reports := 0
	// NackInterval an hour out: the gap-scan's cumulative-ack refresh
	// goes through encodeControl, a (pre-existing) allocating path that
	// is not under test here.
	rcv, err := NewReceiver(s, func(p []byte) error {
		if wire.TypeOf(p) == wire.TypeFB {
			reports++
		}
		return nil
	}, Config{Policy: NoRetransmit, FeedbackInterval: 10 * time.Millisecond,
		NackInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	rcv.OnADU = func(adu ADU) { adu.Release() }

	// HeartbeatLimit 1: heartbeats provoke control replies through
	// encodeControl, a (pre-existing) allocating path that is not under
	// test here.
	var snd *Sender
	snd, err = testSender(s, func(p []byte) error { return rcv.HandlePacket(p) },
		Config{Policy: NoRetransmit, HeartbeatLimit: 1})
	if err != nil {
		t.Fatal(err)
	}

	name := uint64(0)
	data := payload(512, 6)
	iter := func() {
		if _, err := snd.Send(name, xcode.SyntaxRaw, data); err != nil {
			t.Fatal(err)
		}
		name++
		// Cross a report boundary so onFeedback actually fires.
		if err := s.RunFor(10 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		iter()
	}
	if allocs := testing.AllocsPerRun(50, iter); allocs != 0 {
		t.Fatalf("receiver feedback path allocates %v allocs/op, want 0", allocs)
	}
	if reports == 0 {
		t.Fatal("no reports emitted; rig broken")
	}
}
