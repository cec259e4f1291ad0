package alf

import (
	"errors"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/wire"
	"repro/internal/xcode"
)

func TestFeedbackWireRoundtrip(t *testing.T) {
	var buf [wire.FeedbackSize]byte
	msg := wire.EncodeFeedback(buf[:0], 7, 0xDEADBEEF, 1<<40, 12345)
	if len(msg) != wire.FeedbackSize {
		t.Fatalf("encoded length %d, want %d", len(msg), wire.FeedbackSize)
	}
	if wire.TypeOf(msg) != wire.TypeFB {
		t.Errorf("TypeOf = %d, want %d", wire.TypeOf(msg), wire.TypeFB)
	}
	stream, seq, recvd, good, err := wire.ParseFeedback(msg)
	if err != nil {
		t.Fatal(err)
	}
	if stream != 7 || seq != 0xDEADBEEF || recvd != 1<<40 || good != 12345 {
		t.Errorf("roundtrip = (%d, %d, %d, %d)", stream, seq, recvd, good)
	}

	// Any single-byte corruption must be rejected by the checksum.
	msg[9] ^= 0x40
	if _, _, _, _, err := wire.ParseFeedback(msg); !errors.Is(err, ErrBadHeader) {
		t.Errorf("corrupt feedback parsed: %v", err)
	}
}

func TestAIMDSteps(t *testing.T) {
	a := &AIMD{Floor: 1e5, Ceil: 1e6, Backoff: 0.5, ProbeBps: 5e4, LossThreshold: 0.05}
	if got := a.OnFeedback(4e5, RateSample{LossFrac: 0.10}); got != 2e5 {
		t.Errorf("lossy backoff: %v, want 2e5", got)
	}
	if got := a.OnFeedback(4e5, RateSample{LossFrac: 0.01}); got != 4.5e5 {
		t.Errorf("clean probe: %v, want 4.5e5", got)
	}
	if got := a.OnFeedback(1.2e5, RateSample{LossFrac: 1}); got != 1e5 {
		t.Errorf("floor clamp: %v, want 1e5", got)
	}
	if got := a.OnFeedback(9.9e5, RateSample{}); got != 1e6 {
		t.Errorf("ceil clamp: %v, want 1e6", got)
	}

	// The zero value is usable: documented defaults apply lazily.
	d := &AIMD{}
	if got := d.OnFeedback(1e6, RateSample{LossFrac: 0.5}); got != 5e5 {
		t.Errorf("default backoff: %v, want 5e5", got)
	}
	if got := d.OnFeedback(1e6, RateSample{}); got != 1.1e6 {
		t.Errorf("default probe: %v, want 1.1e6", got)
	}
}

func TestPriorityString(t *testing.T) {
	for p, want := range map[Priority]string{
		Standard: "standard", Critical: "critical", Droppable: "droppable", Priority(9): "invalid-priority",
	} {
		if got := p.String(); got != want {
			t.Errorf("Priority(%d).String() = %q, want %q", p, got, want)
		}
	}
}

// feedbackSender builds a paced closed-loop sender whose wire sink is a
// no-op, for white-box feedback tests.
func feedbackSender(t *testing.T, cfg Config) *Sender {
	t.Helper()
	s := sim.NewScheduler()
	snd, err := testSender(s, func([]byte) error { return nil }, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return snd
}

func TestFeedbackStaleSequenceIgnored(t *testing.T) {
	snd := feedbackSender(t, Config{
		Policy: NoRetransmit, RateBps: 1e6,
		FeedbackInterval: 50 * time.Millisecond,
		Controller:       &AIMD{Floor: 1e5, Ceil: 1e7},
	})
	var buf [wire.FeedbackSize]byte
	report := func(seq uint32, recvd uint64) error {
		return snd.HandleControl(wire.EncodeFeedback(buf[:0], 0, seq, recvd, recvd))
	}

	if err := report(5, 1000); err != nil {
		t.Fatal(err)
	}
	if snd.Stats.FeedbackRecv != 1 {
		t.Fatalf("FeedbackRecv = %d after first report", snd.Stats.FeedbackRecv)
	}
	rate := snd.Rate()

	// A reordered (older) report and a duplicate both carry nothing.
	if err := report(3, 400); err != nil {
		t.Fatal(err)
	}
	if err := report(5, 1000); err != nil {
		t.Fatal(err)
	}
	if snd.Stats.FeedbackRecv != 1 {
		t.Errorf("stale reports accepted: FeedbackRecv = %d", snd.Stats.FeedbackRecv)
	}
	if snd.Rate() != rate {
		t.Errorf("stale report moved the rate: %v -> %v", rate, snd.Rate())
	}

	// The next fresh sequence is accepted.
	if err := report(6, 2000); err != nil {
		t.Fatal(err)
	}
	if snd.Stats.FeedbackRecv != 2 {
		t.Errorf("fresh report rejected: FeedbackRecv = %d", snd.Stats.FeedbackRecv)
	}
}

func TestFeedbackWrongStreamAndCorrupt(t *testing.T) {
	snd := feedbackSender(t, Config{StreamID: 3, Policy: NoRetransmit, RateBps: 1e6,
		FeedbackInterval: 50 * time.Millisecond})
	var buf [wire.FeedbackSize]byte

	msg := wire.EncodeFeedback(buf[:0], 9, 1, 100, 100)
	if err := snd.HandleControl(msg); !errors.Is(err, ErrWrongStream) {
		t.Errorf("wrong-stream feedback: %v", err)
	}
	if snd.Stats.FeedbackRecv != 0 {
		t.Errorf("wrong-stream report counted")
	}

	msg = wire.EncodeFeedback(buf[:0], 3, 1, 100, 100)
	msg[6] ^= 0xFF
	if err := snd.HandleControl(msg); !errors.Is(err, ErrBadHeader) {
		t.Errorf("corrupt feedback: %v", err)
	}
	if snd.Stats.CtrlDropped != 1 {
		t.Errorf("CtrlDropped = %d, want 1", snd.Stats.CtrlDropped)
	}
}

func TestShedOnBacklog(t *testing.T) {
	snd := feedbackSender(t, Config{
		Policy: NoRetransmit, RateBps: 1e5, ShedBacklog: 50 * time.Millisecond,
	})
	data := payload(4096, 1)

	// A Standard send books the pacer ~330 ms ahead at 100 kb/s.
	if _, err := snd.Send(1, xcode.SyntaxRaw, data); err != nil {
		t.Fatal(err)
	}
	if snd.Backlog() <= 50*time.Millisecond {
		t.Fatalf("backlog %v not past threshold; test rig broken", snd.Backlog())
	}

	next := snd.NextName()
	if _, err := snd.SendClass(2, xcode.SyntaxRaw, data, Droppable); !errors.Is(err, ErrShed) {
		t.Fatalf("Droppable not shed under backlog: %v", err)
	}
	if snd.NextName() != next {
		t.Errorf("shed ADU consumed a name")
	}
	if snd.Stats.ShedADUs != 1 {
		t.Errorf("ShedADUs = %d, want 1", snd.Stats.ShedADUs)
	}

	// Critical and Standard always transmit.
	if _, err := snd.SendClass(3, xcode.SyntaxRaw, data, Critical); err != nil {
		t.Errorf("Critical shed: %v", err)
	}
	if _, err := snd.SendClass(4, xcode.SyntaxRaw, data, Standard); err != nil {
		t.Errorf("Standard shed: %v", err)
	}
}

func TestShedOnReportedLoss(t *testing.T) {
	snd := feedbackSender(t, Config{
		Policy: NoRetransmit, RateBps: 1e8,
		FeedbackInterval: 50 * time.Millisecond,
		ShedBacklog:      time.Hour, // isolate the loss trigger
		ShedLossFrac:     0.25,
	})
	data := payload(1024, 2)

	// Emit some wire volume, then report that none of it arrived: a
	// 100%-loss interval pushes the EWMA (0.3 weight) past 0.25.
	if _, err := snd.Send(1, xcode.SyntaxRaw, data); err != nil {
		t.Fatal(err)
	}
	var buf [wire.FeedbackSize]byte
	if err := snd.HandleControl(wire.EncodeFeedback(buf[:0], 0, 1, 0, 0)); err != nil {
		t.Fatal(err)
	}

	if _, err := snd.SendClass(2, xcode.SyntaxRaw, data, Droppable); !errors.Is(err, ErrShed) {
		t.Fatalf("Droppable not shed at lossEWMA %v: %v", snd.lossEWMA, err)
	}
	if _, err := snd.SendClass(3, xcode.SyntaxRaw, data, Critical); err != nil {
		t.Errorf("Critical shed: %v", err)
	}
}

func TestRecoveryBandwidthCap(t *testing.T) {
	s := sim.NewScheduler()
	snd, err := testSender(s, func([]byte) error { return nil }, Config{
		Policy: SenderBuffered, RateBps: 1e6, RecoveryFrac: 0.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	data := payload(1000, 5) // one fragment: 1034 wire bytes

	// Budget: 1e6 * 0.01 / 8 = 1250 bytes/s, burst 1250 bytes.
	if _, err := snd.Send(0, xcode.SyntaxRaw, data); err != nil {
		t.Fatal(err)
	}
	if _, err := snd.Send(1, xcode.SyntaxRaw, data); err != nil {
		t.Fatal(err)
	}
	if _, err := snd.SendClass(2, xcode.SyntaxRaw, data, Critical); err != nil {
		t.Fatal(err)
	}

	snd.resend(0) // 1034 <= 1250: allowed
	if snd.Stats.ResentADUs != 1 || snd.Stats.RetxSuppressed != 0 {
		t.Fatalf("first resend: resent=%d suppressed=%d", snd.Stats.ResentADUs, snd.Stats.RetxSuppressed)
	}
	snd.resend(1) // 216 bytes left: suppressed
	snd.resend(1) // still suppressed (virtual time is frozen)
	if snd.Stats.ResentADUs != 1 || snd.Stats.RetxSuppressed != 2 {
		t.Fatalf("capped resends: resent=%d suppressed=%d", snd.Stats.ResentADUs, snd.Stats.RetxSuppressed)
	}

	// Critical bypasses the cap even with the bucket empty — and still
	// debits it, so it keeps suppressing Standard traffic afterwards.
	snd.resend(2)
	if snd.Stats.ResentADUs != 2 {
		t.Fatalf("Critical resend suppressed: resent=%d", snd.Stats.ResentADUs)
	}
	if snd.retxTokens >= 0 {
		t.Errorf("Critical resend did not debit the bucket: tokens=%v", snd.retxTokens)
	}
	snd.resend(1)
	if snd.Stats.RetxSuppressed != 3 {
		t.Errorf("bucket not empty after Critical bypass: suppressed=%d", snd.Stats.RetxSuppressed)
	}

	// The bucket refills with virtual time.
	s.After(2*time.Second, func() { snd.resend(1) })
	_ = s.RunUntil(s.Now().Add(2 * time.Second))
	if snd.Stats.ResentADUs != 3 {
		t.Errorf("refilled bucket still suppressing: resent=%d suppressed=%d",
			snd.Stats.ResentADUs, snd.Stats.RetxSuppressed)
	}
}

// TestClosedLoopConvergesToBottleneck drives 4 Mb/s of offered load
// through a 2 Mb/s bottleneck twice — open loop (fixed 10 Mb/s pacing)
// and closed loop (AIMD) — from the same seed. The AIMD run must pull
// its rate down toward the bottleneck, losing far less and delivering
// more; the fixed run is the §3 cautionary tale.
func TestClosedLoopConvergesToBottleneck(t *testing.T) {
	run := func(ctrl RateController) *pair {
		cfg := Config{
			Policy:           NoRetransmit,
			RateBps:          10e6,
			FeedbackInterval: 50 * time.Millisecond,
			Controller:       ctrl,
			HoldTime:         500 * time.Millisecond,
		}
		link := netsim.LinkConfig{RateBps: 2e6, Delay: 2 * time.Millisecond, QueueLimit: 16}
		p := newPair(t, link, cfg, 42)
		data := payload(2500, 9)
		for i := 0; i < 400; i++ {
			tag := uint64(i)
			p.sched.After(time.Duration(i)*5*time.Millisecond, func() {
				_, _ = p.snd.Send(tag, xcode.SyntaxRaw, data)
			})
		}
		p.sched.Run()
		return p
	}

	fixed := run(nil)
	aimd := run(&AIMD{Floor: 5e5, Ceil: 10e6, ProbeBps: 2e5})

	if aimd.snd.Stats.FeedbackRecv < 10 {
		t.Errorf("feedback loop barely ran: %d reports", aimd.snd.Stats.FeedbackRecv)
	}
	if aimd.snd.Stats.RateChanges < 5 {
		t.Errorf("controller barely acted: %d rate changes", aimd.snd.Stats.RateChanges)
	}
	if r := aimd.snd.Rate(); r >= 5e6 {
		t.Errorf("AIMD rate did not come down: %v b/s", r)
	}
	if fixed.snd.Stats.RateChanges != 0 {
		t.Errorf("open-loop sender changed rate %d times", fixed.snd.Stats.RateChanges)
	}

	fixedDrops := fixed.ab.Stats.QueueDrops
	aimdDrops := aimd.ab.Stats.QueueDrops
	if fixedDrops == 0 {
		t.Fatalf("contrast case lost nothing; bottleneck rig broken")
	}
	if aimdDrops*2 >= fixedDrops {
		t.Errorf("AIMD drops %d not well under fixed drops %d", aimdDrops, fixedDrops)
	}
	if len(aimd.adus) <= len(fixed.adus) {
		t.Errorf("AIMD delivered %d ADUs, fixed %d — closed loop should win", len(aimd.adus), len(fixed.adus))
	}
	t.Logf("fixed: %d delivered, %d queue drops; aimd: %d delivered, %d queue drops, final rate %.0f",
		len(fixed.adus), fixedDrops, len(aimd.adus), aimdDrops, aimd.snd.Rate())
}

// TestFeedbackQuiescence: the receiver's report timer must stop on its
// own once the stream is idle and settled, so soak drains terminate.
func TestFeedbackQuiescence(t *testing.T) {
	cfg := Config{
		Policy:           SenderBuffered,
		RateBps:          1e7,
		FeedbackInterval: 30 * time.Millisecond,
	}
	p := newPair(t, netsim.LinkConfig{RateBps: 1e8, Delay: time.Millisecond}, cfg, 7)
	for i := 0; i < 20; i++ {
		if _, err := p.snd.Send(uint64(i), xcode.SyntaxRaw, payload(800, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Run() only returns when no events remain: a feedback timer that
	// re-arms forever would spin this loop past any bound.
	p.sched.Run()
	if len(p.adus) != 20 {
		t.Fatalf("delivered %d of 20", len(p.adus))
	}
	if p.rcv.Stats.FeedbackSent == 0 {
		t.Error("no feedback reports on an active stream")
	}
	if p.rcv.fb.Active() {
		t.Error("feedback timer still armed after quiescence")
	}
	if p.snd.Stats.FeedbackRecv == 0 {
		t.Error("sender saw no reports")
	}
}
