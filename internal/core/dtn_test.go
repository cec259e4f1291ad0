package alf

import (
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/wire"
	"repro/internal/xcode"
)

// sample builds a RateSample whose delivery rate is rateBps over a
// 1-second interval.
func sample(rateBps float64) RateSample {
	return RateSample{Interval: time.Second, RecvBytes: int64(rateBps / 8)}
}

// TestWindowedRateModel: the paced rate is the windowed maximum of
// measured delivery rates, not the latest sample — one slow interval
// must not drag the pace down.
func TestWindowedRateModel(t *testing.T) {
	w := &WindowedRate{}
	cur := 1e6
	cur = w.OnFeedback(cur, sample(8e6))
	cur = w.OnFeedback(cur, sample(6e6))
	cur = w.OnFeedback(cur, sample(4e6))
	if cur != 8e6 {
		t.Fatalf("rate = %v, want windowed max 8e6 despite slower recent samples", cur)
	}
	// The window is finite: once the 8 Mb/s sample ages out, the
	// estimate follows the path down.
	for i := 0; i < 8; i++ {
		cur = w.OnFeedback(cur, sample(4e6))
	}
	if cur > 5.1e6 {
		t.Fatalf("rate = %v after the window turned over, want ~4e6", cur)
	}
}

// TestWindowedRateStaleHoldsThroughBlackout is the DTN contrast in
// miniature: a blackout-spanning report (huge interval, near-zero
// delivery) halves an AIMD controller but leaves the windowed model
// untouched, so transmission resumes at the pre-blackout rate.
func TestWindowedRateStaleHoldsThroughBlackout(t *testing.T) {
	w := &WindowedRate{StaleAfter: 30 * time.Second}
	cur := 1e6
	for i := 0; i < 3; i++ {
		cur = w.OnFeedback(cur, sample(8e6))
	}
	if cur != 8e6 {
		t.Fatalf("pre-blackout rate = %v, want 8e6", cur)
	}
	// 40 virtual minutes of silence, then one report describing the
	// outage: almost nothing delivered, everything apparently lost.
	blackout := RateSample{Interval: 40 * time.Minute, RecvBytes: 1000, LossFrac: 0.99}
	got := w.OnFeedback(cur, blackout)
	if got != 8e6 {
		t.Fatalf("stale report moved the model: rate = %v, want held at 8e6", got)
	}

	aimd := &AIMD{}
	if got := aimd.OnFeedback(8e6, blackout); got >= 8e6 {
		t.Fatalf("AIMD did not back off on the same report: %v", got)
	}
}

// TestWindowedRateProbeCadence: every ProbeEvery-th fresh sample pays
// the probe gain, because the model can only learn a faster path by
// offering one.
func TestWindowedRateProbeCadence(t *testing.T) {
	w := &WindowedRate{} // defaults: Gain 1.0, ProbeGain 1.25, ProbeEvery 6
	cur := 1e6
	for i := 1; i <= 5; i++ {
		cur = w.OnFeedback(cur, sample(8e6))
		if cur != 8e6 {
			t.Fatalf("fresh sample %d: rate = %v, want 8e6", i, cur)
		}
	}
	if cur = w.OnFeedback(cur, sample(8e6)); cur != 10e6 {
		t.Fatalf("6th fresh sample: rate = %v, want probe 1.25*8e6", cur)
	}
}

// TestWindowedRateClamps pins Floor/Ceil and the no-model hold.
func TestWindowedRateClamps(t *testing.T) {
	w := &WindowedRate{Ceil: 1e6}
	if got := w.OnFeedback(5e5, sample(8e6)); got != 1e6 {
		t.Fatalf("ceil: rate = %v, want 1e6", got)
	}
	w2 := &WindowedRate{}
	if got := w2.OnFeedback(5e6, sample(80)); got != 128e3 {
		t.Fatalf("floor: rate = %v, want default floor 128e3", got)
	}
	// Only stale reports so far: no model, hold the current rate.
	w3 := &WindowedRate{StaleAfter: time.Second}
	if got := w3.OnFeedback(5e6, RateSample{Interval: time.Minute, RecvBytes: 1 << 20}); got != 5e6 {
		t.Fatalf("no model: rate = %v, want current 5e6", got)
	}
	if got := w3.OnFeedback(5e6, RateSample{}); got != 5e6 {
		t.Fatalf("zero interval: rate = %v, want current 5e6", got)
	}
}

// TestValidateDTNFields covers the DTN/custody configuration checks:
// each nonsense field is rejected with ErrConfig, each sensible
// combination accepted.
func TestValidateDTNFields(t *testing.T) {
	base := func() Config {
		return Config{
			RateBps:          8e6,
			FeedbackInterval: time.Second,
		}
	}
	bad := []struct {
		name string
		mut  func(*Config)
	}{
		{"negative WindowedRate.Window", func(c *Config) {
			c.Controller = &WindowedRate{Window: -1}
		}},
		{"negative WindowedRate.StaleAfter", func(c *Config) {
			c.Controller = &WindowedRate{StaleAfter: -time.Second}
		}},
		{"custody without retention", func(c *Config) {
			c.Custody = true
			c.Policy = AppRecompute
		}},
	}
	for _, tc := range bad {
		cfg := base()
		tc.mut(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
		if !errors.Is(err, ErrConfig) {
			t.Fatalf("%s: error %v does not wrap ErrConfig", tc.name, err)
		}
	}
	good := []struct {
		name string
		mut  func(*Config)
	}{
		{"windowed rate at DTN delay", func(c *Config) {
			c.Controller = &WindowedRate{StaleAfter: time.Hour}
		}},
		{"custody with sender buffering", func(c *Config) {
			c.Custody = true
			c.Policy = SenderBuffered
		}},
	}
	for _, tc := range good {
		cfg := base()
		tc.mut(&cfg)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s: rejected: %v", tc.name, err)
		}
	}
}

// TestHeartbeatBackoffNoOverflow is the 24-minute-RTT regression: with
// hour-scale intervals and a max near the int64 horizon, deep backoff
// must saturate, never wrap negative (a negative interval stalls the
// heartbeat timer forever and the stream dies silently).
func TestHeartbeatBackoffNoOverflow(t *testing.T) {
	s := sim.NewScheduler()
	snd, err := NewSender(s, func([]byte) error { return nil }, Config{
		HeartbeatInterval:    24 * time.Minute,
		HeartbeatMaxInterval: sim.Duration(math.MaxInt64),
	})
	if err != nil {
		t.Fatal(err)
	}
	for misses := 0; misses <= 600; misses += 25 {
		snd.hbMisses = misses
		for trial := 0; trial < 4; trial++ { // jitter advances per call
			iv := snd.hbInterval()
			if iv <= 0 {
				t.Fatalf("misses=%d: interval %v wrapped or zeroed", misses, iv)
			}
		}
	}
}

// TestADUDeadlineNeverWrapsToInstantExpiry: sentAt + deadline past the
// int64 horizon must read as never-due, not already-due.
func TestADUDeadlineNeverWrapsToInstantExpiry(t *testing.T) {
	s := sim.NewScheduler()
	snd, err := testSender(s, func([]byte) error { return nil }, Config{
		ADUDeadline: sim.Duration(math.MaxInt64 - 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	s.After(time.Second, func() {
		if _, err := snd.Send(1, xcode.SyntaxRaw, make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
	})
	if err := s.RunUntil(sim.Time(0).Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	onRetire(snd) // sentAt=1s, due wraps negative: must be kept
	if got := snd.BufferedADUs(); got != 1 {
		t.Fatalf("wrapped deadline expired the ADU: %d buffered, want 1", got)
	}
	if snd.Stats.DeadlineDrops != 0 {
		t.Fatalf("DeadlineDrops = %d, want 0", snd.Stats.DeadlineDrops)
	}
}

// TestNackDueOverflow: NACK backoff at huge configured delays must
// saturate to "not yet" rather than wrap and fire on every scan.
func TestNackDueOverflow(t *testing.T) {
	now := sim.Time(0).Add(100 * time.Hour)
	last := sim.Time(0)
	huge := sim.Duration(math.MaxInt64 / 4)
	if nackDue(now, last, last, 5, huge) {
		t.Fatal("overflowed backoff fired")
	}
	// Sane DTN parameters still work: 24 min << 5 = 12.8 h.
	delay := 24 * time.Minute
	if nackDue(now, last, last, 5, delay) != true {
		t.Fatal("13h-old NACK with 12.8h backoff not due")
	}
	if nackDue(sim.Time(0).Add(time.Hour), last, last, 5, delay) {
		t.Fatal("1h-old NACK with 12.8h backoff fired early")
	}
}

// TestCustodyAckWire pins the CA frame: round trip, even length (the
// trailing checksum must stay 16-bit aligned or verification can never
// pass), and rejection of corruption.
func TestCustodyAckWire(t *testing.T) {
	ca := wire.CustodyAck{Stream: 3, Relay: 7, Cum: 42, Names: []uint64{50, 99, 1 << 40}}
	pkt := wire.EncodeCustody(&ca)
	if len(pkt)%2 != 0 {
		t.Fatalf("CA frame length %d is odd; checksum slot unaligned", len(pkt))
	}
	got, err := wire.ParseCustody(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stream != ca.Stream || got.Relay != ca.Relay || got.Cum != ca.Cum {
		t.Fatalf("round trip: got %+v, want %+v", got, ca)
	}
	if len(got.Names) != 3 || got.Names[0] != 50 || got.Names[1] != 99 || got.Names[2] != 1<<40 {
		t.Fatalf("names round trip: %v", got.Names)
	}
	// Empty names and zero cum: minimum frame.
	min := wire.EncodeCustody(&wire.CustodyAck{})
	if len(min) != 16 {
		t.Fatalf("minimum CA frame is %d bytes, want %d", len(min), 16)
	}
	if _, err := wire.ParseCustody(min); err != nil {
		t.Fatal(err)
	}
	// Every single-bit corruption must be rejected.
	for bit := 0; bit < len(pkt)*8; bit++ {
		mut := append([]byte(nil), pkt...)
		mut[bit/8] ^= 1 << uint(bit%8)
		if _, err := wire.ParseCustody(mut); err == nil {
			t.Fatalf("bit-%d corruption accepted", bit)
		}
	}
	if _, err := wire.ParseCustody(nil); err == nil {
		t.Fatal("nil packet accepted")
	}
}

// TestSenderCustodyRelease: a custody ack releases the named ADUs and
// everything below the frontier, and later NACKs for released names
// are suppressed instead of racing the relay's own recovery.
func TestSenderCustodyRelease(t *testing.T) {
	s := sim.NewScheduler()
	snd, err := testSender(s, func([]byte) error { return nil }, Config{Custody: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := snd.Send(uint64(i), xcode.SyntaxRaw, make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
	}
	// Frontier 1 (releases name 0) plus name 2 out of order.
	ack := wire.EncodeCustody(&wire.CustodyAck{Stream: 0, Cum: 1, Names: []uint64{2}})
	if err := snd.HandleControl(ack); err != nil {
		t.Fatal(err)
	}
	if got := snd.BufferedADUs(); got != 1 {
		t.Fatalf("%d ADUs buffered after custody ack, want 1 (only name 1)", got)
	}
	if snd.Stats.CustodyAcks != 1 || snd.Stats.CustodyReleased != 2 {
		t.Fatalf("CustodyAcks=%d CustodyReleased=%d, want 1 and 2",
			snd.Stats.CustodyAcks, snd.Stats.CustodyReleased)
	}
	// NACK for the custody-released name: suppressed. For the retained
	// name: answered.
	snd.HandleControl(wire.EncodeControl(nil, &wire.Control{Stream: 0, Nacks: []uint64{2}}))
	if snd.Stats.CustodyNacks != 1 || snd.Stats.ResentADUs != 0 {
		t.Fatalf("CustodyNacks=%d ResentADUs=%d after NACK for released name, want 1 and 0",
			snd.Stats.CustodyNacks, snd.Stats.ResentADUs)
	}
	snd.HandleControl(wire.EncodeControl(nil, &wire.Control{Stream: 0, Nacks: []uint64{1}}))
	if snd.Stats.ResentADUs != 1 {
		t.Fatalf("ResentADUs=%d after NACK for retained name, want 1", snd.Stats.ResentADUs)
	}

	// Without the opt-in, the same ack must release nothing.
	snd2, _ := testSender(s, func([]byte) error { return nil }, Config{})
	snd2.Send(0, xcode.SyntaxRaw, make([]byte, 100))
	snd2.HandleControl(wire.EncodeCustody(&wire.CustodyAck{Stream: 0, Cum: 1}))
	if got := snd2.BufferedADUs(); got != 1 {
		t.Fatalf("custody ack released retention without Config.Custody: %d buffered", got)
	}
	if snd2.Stats.CustodyAcks != 0 {
		t.Fatal("custody ack counted without Config.Custody")
	}
}

// TestCustodyBeyondNextNameDropped: a custody ack whose frontier passes
// every name the sender has spent is counted and dropped, and a listed
// name not yet spent is ignored rather than remembered as released.
func TestCustodyBeyondNextNameDropped(t *testing.T) {
	s := sim.NewScheduler()
	snd, _ := testSender(s, func([]byte) error { return nil }, Config{Custody: true})
	for i := 0; i < 3; i++ {
		snd.Send(uint64(i), xcode.SyntaxRaw, make([]byte, 100))
	}
	err := snd.HandleControl(wire.EncodeCustody(&wire.CustodyAck{Stream: 0, Cum: 1 << 40}))
	if !errors.Is(err, ErrBadHeader) || snd.Stats.CtrlDropped != 1 || snd.Stats.CustodyAcks != 0 {
		t.Fatalf("err %v, %d dropped, %d acks: want ErrBadHeader, 1, 0",
			err, snd.Stats.CtrlDropped, snd.Stats.CustodyAcks)
	}
	if got := snd.BufferedADUs(); got != 3 {
		t.Fatalf("%d ADUs retained after a frontier beyond the next name, want 3", got)
	}
	ack := wire.EncodeCustody(&wire.CustodyAck{Stream: 0, Cum: 0, Names: []uint64{1, 3, 1 << 40}})
	if err := snd.HandleControl(ack); err != nil {
		t.Fatal(err)
	}
	if got := snd.BufferedADUs(); got != 2 || snd.Stats.CustodyReleased != 1 {
		t.Fatalf("%d ADUs retained, %d released, want 2 and 1", got, snd.Stats.CustodyReleased)
	}
	if len(snd.custodyDone) != 1 {
		t.Fatalf("custody remembers %d names, want only the spent name 1", len(snd.custodyDone))
	}
}
