package alf

import (
	"errors"
	"slices"
	"testing"
	"time"

	"repro/internal/buf"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/tracing"
	"repro/internal/wire"
	"repro/internal/xcode"
)

// TestADUDeadlineShedsRetentionDuringBlackout: with both directions of
// the path down, a SenderBuffered stream must not retain stale ADUs
// past the configured give-up deadline.
func TestADUDeadlineShedsRetentionDuringBlackout(t *testing.T) {
	cfg := Config{
		ADUDeadline:       100 * time.Millisecond,
		HeartbeatInterval: 10 * time.Millisecond,
	}
	p := newPair(t, netsim.LinkConfig{Delay: time.Millisecond}, cfg, 3)
	p.ab.SetDown(true)
	p.ba.SetDown(true)
	var expired []uint64
	p.snd.OnExpire = func(name uint64) { expired = append(expired, name) }
	const n = 10
	for i := 0; i < n; i++ {
		if _, err := p.snd.Send(uint64(i), xcode.SyntaxRaw, payload(600, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if p.snd.BufferedADUs() != n {
		t.Fatalf("buffered = %d before deadline", p.snd.BufferedADUs())
	}
	p.sched.RunUntil(sim.Time(0).Add(time.Second))
	if p.snd.BufferedADUs() != 0 || p.snd.BufferedBytes() != 0 {
		t.Errorf("retention not shed: %d ADUs, %d bytes",
			p.snd.BufferedADUs(), p.snd.BufferedBytes())
	}
	if p.snd.Stats.DeadlineDrops != n || len(expired) != n {
		t.Errorf("deadline drops = %d, OnExpire calls = %d, want %d",
			p.snd.Stats.DeadlineDrops, len(expired), n)
	}
	if len(p.adus) != 0 {
		t.Error("delivery through a down link")
	}
}

// TestADUDeadlineDoesNotShedConfirmedTraffic: on a healthy path the
// deadline must never fire — cumulative acks release retention first.
func TestADUDeadlineDoesNotShedConfirmedTraffic(t *testing.T) {
	cfg := Config{
		ADUDeadline:  time.Second,
		NackInterval: 5 * time.Millisecond,
	}
	p := newPair(t, netsim.LinkConfig{Delay: time.Millisecond}, cfg, 4)
	const n = 20
	for i := 0; i < n; i++ {
		p.snd.Send(uint64(i), xcode.SyntaxRaw, payload(600, byte(i)))
	}
	p.sched.Run()
	if len(p.adus) != n {
		t.Fatalf("delivered %d of %d", len(p.adus), n)
	}
	if p.snd.Stats.DeadlineDrops != 0 {
		t.Errorf("deadline drops = %d on a healthy path", p.snd.Stats.DeadlineDrops)
	}
	if p.snd.BufferedADUs() != 0 {
		t.Errorf("retention = %d after full confirmation", p.snd.BufferedADUs())
	}
}

// TestExpiredADUNacksGoUnfilled: once the deadline sheds an ADU, later
// NACKs for it are counted unfilled and the receiver eventually gives
// the ADU up — exactly once, on each side of the accounting.
func TestExpiredADUNacksGoUnfilled(t *testing.T) {
	cfg := Config{
		ADUDeadline:  50 * time.Millisecond,
		NackDelay:    5 * time.Millisecond,
		NackInterval: 5 * time.Millisecond,
		HoldTime:     200 * time.Millisecond,
		MaxNacks:     3,
	}
	p := newPair(t, netsim.LinkConfig{Delay: time.Millisecond}, cfg, 5)
	// Cut only the data direction: control (NACKs) still reaches the
	// sender, but nothing the sender emits arrives.
	p.ab.SetDown(true)
	p.snd.Send(0, xcode.SyntaxRaw, payload(600, 1))
	// The receiver learns of ADU 0 from a heartbeat once the link heals,
	// after the retention deadline has already fired.
	p.sched.RunUntil(sim.Time(0).Add(100 * time.Millisecond))
	if p.snd.BufferedADUs() != 0 {
		t.Fatal("deadline did not shed during the outage")
	}
	p.ab.SetDown(false)
	p.sched.RunUntil(sim.Time(0).Add(2 * time.Second))
	if p.snd.Stats.UnfilledNacks == 0 {
		t.Error("no unfilled NACKs recorded for the shed ADU")
	}
	if len(p.lost) != 1 || p.lost[0] != 0 {
		t.Errorf("lost = %v, want exactly [0]", p.lost)
	}
	if len(p.adus) != 0 {
		t.Error("shed ADU delivered")
	}
}

// TestHeartbeatBackoffCapsProbeRate: during sustained silence the
// heartbeat interval must decay toward HeartbeatMaxInterval instead of
// probing at the data-plane cadence forever.
func TestHeartbeatBackoffCapsProbeRate(t *testing.T) {
	s := sim.NewScheduler()
	var times []sim.Time
	snd, err := testSender(s, func(p []byte) error {
		if wire.TypeOf(p) == wire.TypeHB {
			times = append(times, s.Now())
		}
		return nil
	}, Config{
		HeartbeatInterval:    10 * time.Millisecond,
		HeartbeatMaxInterval: 160 * time.Millisecond,
		HeartbeatLimit:       1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	snd.Send(0, xcode.SyntaxRaw, payload(100, 1))
	s.RunUntil(sim.Time(0).Add(10 * time.Second))

	// Unbacked-off, 10 s / 10 ms ≈ 1000 heartbeats. With doubling every
	// two misses up to 160 ms (±25% jitter) the steady state is ≥120 ms
	// per probe, so well under 150 total.
	if len(times) < 10 || len(times) > 150 {
		t.Fatalf("heartbeats = %d, want backed-off count in [10,150]", len(times))
	}
	// Late-phase gaps sit in the jittered cap window [0.75x, 1.25x].
	last := times[len(times)-5:]
	for i := 1; i < len(last); i++ {
		gap := last[i].Sub(last[i-1])
		if gap < 120*time.Millisecond || gap > 200*time.Millisecond {
			t.Errorf("late heartbeat gap %v outside jittered cap window", gap)
		}
	}
	// Jitter: the late gaps must not all be identical.
	allEqual := true
	for i := 2; i < len(last); i++ {
		if last[i].Sub(last[i-1]) != last[1].Sub(last[0]) {
			allEqual = false
		}
	}
	if allEqual {
		t.Error("heartbeat gaps show no jitter")
	}
}

// TestHeartbeatLimitStillSilencesDeadPath: the backoff must not defeat
// the hard heartbeat cap.
func TestHeartbeatLimitStillSilencesDeadPath(t *testing.T) {
	s := sim.NewScheduler()
	sent := 0
	snd, err := testSender(s, func(p []byte) error {
		if wire.TypeOf(p) == wire.TypeHB {
			sent++
		}
		return nil
	}, Config{HeartbeatInterval: 10 * time.Millisecond, HeartbeatLimit: 5})
	if err != nil {
		t.Fatal(err)
	}
	snd.Send(0, xcode.SyntaxRaw, payload(100, 1))
	s.Run()
	if sent != 5 {
		t.Errorf("heartbeats = %d, want exactly HeartbeatLimit=5", sent)
	}
}

// TestReleaseOrderAscending pins the order retention ends in: the
// sender walks its window, so the names one control frame, one deadline
// sweep or one custody frontier releases reach OnRelease / OnExpire and
// the tracer lowest first — the same on every run of a seeded
// simulation, where iterating a map was not.
func TestReleaseOrderAscending(t *testing.T) {
	const n = 64
	start := func(cfg Config) (*sim.Scheduler, *Sender, *[]uint64) {
		s := sim.NewScheduler()
		snd, err := testSender(s, func([]byte) error { return nil }, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var released []uint64
		snd.OnRelease = func(name uint64) { released = append(released, name) }
		for i := 0; i < n; i++ {
			if _, err := snd.Send(uint64(i), xcode.SyntaxRaw, payload(100, byte(i))); err != nil {
				t.Fatal(err)
			}
		}
		return s, snd, &released
	}
	saw := func(what string, got []uint64, want ...uint64) {
		t.Helper()
		if !slices.Equal(got, want) {
			t.Errorf("%s saw %v, want %v", what, got, want)
		}
	}
	all := make([]uint64, n)
	for i := range all {
		all[i] = uint64(i)
	}

	t.Run("cumulative ack", func(t *testing.T) {
		_, snd, released := start(Config{})
		if err := snd.HandleControl(wire.EncodeControl(nil, &wire.Control{Cum: n})); err != nil {
			t.Fatal(err)
		}
		saw("OnRelease", *released, all...)
	})
	t.Run("deadline sweep", func(t *testing.T) {
		s, snd, released := start(Config{ADUDeadline: 100 * time.Millisecond, HeartbeatLimit: 1})
		var expired []uint64
		snd.OnExpire = func(name uint64) { expired = append(expired, name) }
		s.RunUntil(sim.Time(0).Add(time.Second))
		saw("OnExpire", expired, all...)
		saw("OnRelease", *released, all...)
	})
	t.Run("custody ack", func(t *testing.T) {
		s, snd, released := start(Config{Custody: true})
		tr := tracing.New(s)
		snd.cfg.Tracer = tr
		// A frontier of 32, and three names above it that leave holes.
		want := append(append([]uint64(nil), all[:32]...), 40, 45, 50)
		ack := wire.EncodeCustody(&wire.CustodyAck{Relay: 1, Cum: 32, Names: want[32:]})
		if err := snd.HandleControl(ack); err != nil {
			t.Fatal(err)
		}
		saw("OnRelease", *released, want...)
		var traced []uint64
		for _, ev := range tr.Events() {
			if ev.Kind == tracing.CustodyRelease {
				traced = append(traced, ev.ADU)
			}
		}
		saw("the tracer", traced, want...)
		// The holes are passed over, not released twice, when the
		// receiver's own frontier catches up.
		*released = (*released)[:0]
		if err := snd.HandleControl(wire.EncodeControl(nil, &wire.Control{Cum: 46})); err != nil {
			t.Fatal(err)
		}
		saw("OnRelease after the holes", *released, 32, 33, 34, 35, 36, 37, 38, 39, 41, 42, 43, 44)
		if got := snd.BufferedADUs(); got != n-46-1 {
			t.Errorf("%d ADUs retained, want %d", got, n-46-1)
		}
	})
}

// TestFarNameBounded: a name far ahead of the settled frontier — one
// forged 12-byte heartbeat is enough, its 16-bit checksum needs no key
// — is inside nameWindow by definition, so it is tracked; what it may
// cost is one table, not one allocation per name, and a scan pass over
// that table with nothing due allocates nothing.
func TestFarNameBounded(t *testing.T) {
	const far = nameWindow
	// fragNamed returns the last fragment of a well-formed cleartext
	// two-fragment ADU with the given name.
	fragNamed := func(name uint64) (frag []byte) {
		snd, err := testSender(sim.NewScheduler(), func(p []byte) error {
			frag = append(frag[:0], p...)
			return nil
		}, Config{})
		if err != nil {
			t.Fatal(err)
		}
		snd.nextName = name
		if _, err := snd.Send(0, xcode.SyntaxRaw, payload(2*snd.cfg.MTU, 1)); err != nil {
			t.Fatal(err)
		}
		return frag
	}
	beyond := [][]byte{fragNamed(far), wire.EncodeHeartbeat(nil, 0, far+1)}

	for _, tc := range []struct {
		what             string
		pkt              []byte
		missing, pending int
	}{
		{"heartbeat declaring 1<<20 names", wire.EncodeHeartbeat(nil, 0, far), far, 0},
		{"fragment named NameWindow-1", fragNamed(far - 1), far - 1, 1},
	} {
		t.Run(tc.what, func(t *testing.T) {
			var s *sim.Scheduler
			var rcv *Receiver
			handle := func() {
				var err error
				s = sim.NewScheduler()
				rcv, err = NewReceiver(s, func([]byte) error { return nil },
					Config{NackDelay: time.Hour, HoldTime: 2 * time.Hour})
				if err != nil {
					t.Fatal(err)
				}
				if err := rcv.HandlePacket(tc.pkt); err != nil {
					t.Fatal(err)
				}
			}
			scan := func() {
				if err := s.RunFor(rcv.cfg.NackInterval); err != nil {
					t.Fatal(err)
				}
			}
			handled := testing.AllocsPerRun(1, handle)
			scan()
			fired := s.Fired()
			scanned := testing.AllocsPerRun(2, scan)
			if !raceEnabled && (handled > 64 || scanned != 0) {
				t.Errorf("receiver set-up + far name: %.0f allocs (want <= 64); a scan pass with nothing due: %.0f (want 0)", handled, scanned)
			}
			if s.Fired()-fired < 3 {
				t.Fatalf("rig broken: %d scans ran", s.Fired()-fired)
			}
			if rcv.Missing() != tc.missing || rcv.Pending() != tc.pending || rcv.Settled() != 0 {
				t.Errorf("Missing %d Pending %d Settled %d, want %d, %d, 0", rcv.Missing(), rcv.Pending(), rcv.Settled(), tc.missing, tc.pending)
			}

			// One name further is outside the window: dropped, nothing grows.
			for _, pkt := range beyond {
				drops := rcv.Stats.HeaderDrops
				if err := rcv.HandlePacket(pkt); !errors.Is(err, ErrBadHeader) || rcv.Stats.HeaderDrops != drops+1 {
					t.Errorf("name beyond cum+nameWindow: err %v, HeaderDrops %d -> %d", err, drops, rcv.Stats.HeaderDrops)
				}
			}
			if rcv.Missing() != tc.missing || rcv.Pending() != tc.pending {
				t.Errorf("a dropped name changed the tables: Missing %d Pending %d", rcv.Missing(), rcv.Pending())
			}
		})
	}
}

// TestNilSendArmsNoHeartbeat: a nil send means no control channel, as
// it does for NewReceiver, so the sender arms no heartbeat and sends
// none, where it used to call the nil function at the first one.
func TestNilSendArmsNoHeartbeat(t *testing.T) {
	s := sim.NewScheduler()
	snd, err := NewSender(s, nil, Config{Policy: SenderBuffered})
	if err != nil {
		t.Fatal(err)
	}
	sent := 0
	snd.SendRef = func(ref *buf.Ref) error { sent++; ref.Release(); return nil }
	if _, err := snd.Send(0, xcode.SyntaxRaw, payload(100, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntil(s.Now().Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	if sent != 1 || snd.Stats.Heartbeats != 0 {
		t.Fatalf("%d packets and %d heartbeats sent, want 1 and 0", sent, snd.Stats.Heartbeats)
	}
}

// TestSendWithoutSendRefRefused: data leaves a sender only by SendRef,
// so one without it refuses every ADU before anything happens — no name
// consumed, nothing counted or retained, every pooled buffer returned.
func TestSendWithoutSendRefRefused(t *testing.T) {
	pool := buf.NewPool()
	snd, err := NewSender(sim.NewScheduler(), func([]byte) error { return nil }, Config{Policy: SenderBuffered, Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snd.Send(0, xcode.SyntaxRaw, payload(3000, 1)); !errors.Is(err, ErrConfig) {
		t.Fatalf("Send without SendRef: err = %v, want ErrConfig", err)
	}
	if snd.NextName() != 0 || snd.Stats.ADUs != 0 || snd.BufferedADUs() != 0 {
		t.Errorf("refused ADU left state: next name %d, %d ADUs, %d buffered", snd.NextName(), snd.Stats.ADUs, snd.BufferedADUs())
	}
	if st := pool.Stats(); st.Gets != st.Puts {
		t.Errorf("pool: %d gets, %d puts", st.Gets, st.Puts)
	}

	// A NACK comes from outside: under AppRecompute it must not reach the
	// missing SendRef either, whatever the application would regenerate.
	rec, err := NewSender(sim.NewScheduler(), nil, Config{Policy: AppRecompute})
	if err != nil {
		t.Fatal(err)
	}
	rec.OnResend = func(uint64) (uint64, xcode.SyntaxID, []byte, bool) { return 0, xcode.SyntaxRaw, payload(10, 1), true }
	if err := rec.HandleControl(wire.EncodeControl(nil, &wire.Control{Nacks: []uint64{0}})); err != nil || rec.Stats.UnfilledNacks != 1 {
		t.Errorf("NACK to a sender without SendRef: err %v, %d unfilled", err, rec.Stats.UnfilledNacks)
	}
}
