package relay_test

import (
	"errors"
	"testing"
	"time"

	alf "repro/internal/core"
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/relay"
	"repro/internal/sim"
	"repro/internal/wire"
	"repro/internal/xcode"
)

// chain is the canonical custody topology: sender — relay — receiver,
// with the relay owning the node in the middle.
//
//	src ──su──▶ rly ──rd──▶ dst
//	src ◀──us── rly ◀──dr── dst
type chain struct {
	sched *sim.Scheduler
	net   *netsim.Network
	snd   *alf.Sender
	rcv   *alf.Receiver
	rly   *relay.Relay

	su, us, rd, dr *netsim.Link

	delivered map[uint64]int
	lost      map[uint64]int
}

func newChain(t *testing.T, upCfg, downCfg netsim.LinkConfig, aCfg alf.Config, rCfg relay.Config) *chain {
	t.Helper()
	c := &chain{
		sched:     sim.NewScheduler(),
		delivered: make(map[uint64]int),
		lost:      make(map[uint64]int),
	}
	c.net = netsim.New(c.sched, 42)
	src := c.net.NewNode("src")
	rly := c.net.NewNode("rly")
	dst := c.net.NewNode("dst")
	c.su = c.net.NewLink(src, rly, upCfg)
	c.us = c.net.NewLink(rly, src, upCfg)
	c.rd = c.net.NewLink(rly, dst, downCfg)
	c.dr = c.net.NewLink(dst, rly, downCfg)

	var err error
	if c.snd, c.rcv, err = alf.Connect(c.sched, src, dst, c.su, c.dr, aCfg); err != nil {
		t.Fatal(err)
	}
	c.rcv.OnADU = func(adu alf.ADU) {
		c.delivered[adu.Name]++
		adu.Release()
	}
	c.rcv.OnLost = func(name uint64) { c.lost[name]++ }

	c.rly, err = relay.New(c.sched, rly, c.us, c.rd, rCfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func (c *chain) run(t *testing.T, until time.Duration) {
	t.Helper()
	if err := c.sched.RunUntil(sim.Time(0).Add(until)); err != nil {
		t.Fatal(err)
	}
}

func payload(name uint64, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(name)*31 + byte(i)
	}
	return b
}

// TestCustodyTransfer is the headline behavior: the relay's custody
// ack releases the sender's retention long before the receiver's own
// cumulative ack could cross the slow downstream hop, and everything
// still arrives exactly once and drains cleanly.
func TestCustodyTransfer(t *testing.T) {
	up := netsim.LinkConfig{RateBps: 50e6, Delay: 10 * time.Millisecond}
	down := netsim.LinkConfig{RateBps: 50e6, Delay: 300 * time.Millisecond}
	c := newChain(t, up, down,
		alf.Config{Custody: true, HeartbeatLimit: 1 << 20},
		relay.Config{CustodyTimer: 5 * time.Millisecond})

	const n = 20
	for i := 0; i < n; i++ {
		if _, err := c.snd.Send(uint64(i), xcode.SyntaxRaw, payload(uint64(i), 4096)); err != nil {
			t.Fatal(err)
		}
	}
	// t=10ms: fragments reach the relay. t=15ms: custody ack batch.
	// t=25ms: sender released. The receiver is 300 ms away and has not
	// even seen the data yet.
	c.run(t, 50*time.Millisecond)
	if got := c.snd.BufferedADUs(); got != 0 {
		t.Fatalf("custody ack should have released all retention; %d ADUs still buffered", got)
	}
	if c.snd.Stats.CustodyAcks == 0 {
		t.Fatal("no custody-ack frames accepted")
	}
	if got := c.snd.Stats.CustodyReleased; got != n {
		t.Fatalf("CustodyReleased = %d, want %d", got, n)
	}
	if len(c.delivered) != 0 {
		t.Fatalf("nothing should be delivered yet at 50 ms over a 300 ms hop")
	}

	c.run(t, 5*time.Second)
	for i := uint64(0); i < n; i++ {
		if c.delivered[i] != 1 {
			t.Fatalf("ADU %d delivered %d times, want exactly once", i, c.delivered[i])
		}
	}
	if got := c.rly.Stats.ADUsAcked; got != n {
		t.Fatalf("relay acked %d ADUs, want %d", got, n)
	}
	// The receiver's frontier, seen in forwarded control, clears the
	// custody store: nothing left, timers quiescent.
	if c.rly.StoredADUs() != 0 || c.rly.StoredBytes() != 0 {
		t.Fatalf("custody store did not drain: %d ADUs, %d bytes",
			c.rly.StoredADUs(), c.rly.StoredBytes())
	}
}

// TestRelayAnswersNacks puts loss on the downstream hop only: every
// receiver NACK names an ADU the relay holds, so recovery is served
// from the custody store and no NACK travels upstream.
func TestRelayAnswersNacks(t *testing.T) {
	up := netsim.LinkConfig{RateBps: 50e6, Delay: 5 * time.Millisecond}
	down := netsim.LinkConfig{RateBps: 20e6, Delay: 50 * time.Millisecond, LossProb: 0.25}
	c := newChain(t, up, down,
		alf.Config{Custody: true, HeartbeatLimit: 1 << 20},
		relay.Config{CustodyTimer: 5 * time.Millisecond})

	const n = 30
	for i := 0; i < n; i++ {
		if _, err := c.snd.Send(uint64(i), xcode.SyntaxRaw, payload(uint64(i), 4096)); err != nil {
			t.Fatal(err)
		}
	}
	c.run(t, 20*time.Second)
	for i := uint64(0); i < n; i++ {
		if c.delivered[i] != 1 {
			t.Fatalf("ADU %d delivered %d times, want exactly once", i, c.delivered[i])
		}
	}
	if c.rly.Stats.NacksAnswered == 0 {
		t.Fatal("25%% downstream loss produced no relay-answered NACKs")
	}
	if got := c.rly.Stats.NacksForwarded; got != 0 {
		t.Fatalf("%d NACKs crossed upstream; the relay held every named ADU", got)
	}
	if got := c.snd.Stats.ResentADUs; got != 0 {
		t.Fatalf("sender resent %d ADUs; recovery should be relay-local", got)
	}
}

// TestBlackoutHealRetransmit sends into a dark downstream link: the
// relay takes custody (releasing the sender), watches the link, and
// re-originates the whole store the moment it heals.
func TestBlackoutHealRetransmit(t *testing.T) {
	up := netsim.LinkConfig{RateBps: 50e6, Delay: 5 * time.Millisecond}
	down := netsim.LinkConfig{RateBps: 20e6, Delay: 20 * time.Millisecond}
	c := newChain(t, up, down,
		alf.Config{Custody: true, HeartbeatLimit: 1 << 20},
		relay.Config{CustodyTimer: 5 * time.Millisecond, HealPoll: 100 * time.Millisecond})

	in := faults.New(c.sched, 1)
	in.Blackout([]*netsim.Link{c.rd}, 100*time.Millisecond, time.Second)

	const n = 10
	c.sched.After(200*time.Millisecond, func() {
		for i := 0; i < n; i++ {
			if _, err := c.snd.Send(uint64(i), xcode.SyntaxRaw, payload(uint64(i), 4096)); err != nil {
				t.Fatal(err)
			}
		}
	})
	// Mid-blackout: custody taken (and acked upstream), nothing
	// deliverable.
	c.run(t, 500*time.Millisecond)
	if got := c.rly.StoredADUs(); got != n {
		t.Fatalf("relay holds %d ADUs mid-blackout, want %d", got, n)
	}
	if got := c.snd.BufferedADUs(); got != 0 {
		t.Fatalf("sender still retains %d ADUs; custody ack crosses the healthy upstream hop", got)
	}

	c.run(t, 10*time.Second)
	if c.rly.Stats.Heals == 0 {
		t.Fatal("relay never observed the downstream heal")
	}
	if got := c.rly.Stats.RetxADUs; got < n {
		t.Fatalf("relay re-originated %d ADUs, want >= %d", got, n)
	}
	for i := uint64(0); i < n; i++ {
		if c.delivered[i] != 1 {
			t.Fatalf("ADU %d delivered %d times, want exactly once", i, c.delivered[i])
		}
	}
	if c.rly.StoredADUs() != 0 {
		t.Fatalf("custody store did not drain: %d ADUs", c.rly.StoredADUs())
	}
}

// TestBoundedStorageEviction overfills a tiny custody store while the
// downstream link is dark: storage never exceeds the bound, oldest
// Standard ADUs are evicted to make room, and every Critical ADU
// survives to delivery.
func TestBoundedStorageEviction(t *testing.T) {
	up := netsim.LinkConfig{RateBps: 50e6, Delay: 5 * time.Millisecond}
	down := netsim.LinkConfig{RateBps: 20e6, Delay: 20 * time.Millisecond}
	const limit = 8 << 10
	c := newChain(t, up, down,
		alf.Config{
			Custody:        true,
			HeartbeatLimit: 1 << 20,
			HoldTime:       time.Second,
			MaxNacks:       3,
		},
		relay.Config{
			StorageLimit: limit,
			CustodyTimer: 5 * time.Millisecond,
			HealPoll:     50 * time.Millisecond,
		})

	in := faults.New(c.sched, 1)
	in.Blackout([]*netsim.Link{c.rd}, 10*time.Millisecond, 2*time.Second)

	// 10 ADUs × ~1.6 KiB wire = 2× the bound. Every third is Critical:
	// the four Critical ADUs (~6.4 KiB) fit, the Standards contend.
	const n = 10
	critical := map[uint64]bool{}
	c.sched.After(50*time.Millisecond, func() {
		for i := 0; i < n; i++ {
			class := alf.Standard
			if i%3 == 0 {
				class = alf.Critical
				critical[uint64(i)] = true
			}
			if _, err := c.snd.SendClass(uint64(i), xcode.SyntaxRaw, payload(uint64(i), 1536), class); err != nil {
				t.Fatal(err)
			}
		}
	})
	c.run(t, 20*time.Second)

	if got := c.rly.Stats.MaxStoredBytes; got > limit {
		t.Fatalf("custody store peaked at %d bytes, bound is %d", got, limit)
	}
	if c.rly.Stats.Evicted == 0 {
		t.Fatal("2x-overcommitted store evicted nothing")
	}
	for name := range critical {
		if c.delivered[name] != 1 {
			t.Fatalf("Critical ADU %d delivered %d times, want exactly once; relay must never evict Critical custody",
				name, c.delivered[name])
		}
	}
	for name, times := range c.delivered {
		if times != 1 {
			t.Fatalf("ADU %d delivered %d times", name, times)
		}
	}
}

// TestConfigValidate pins the per-field rejection contract.
func TestConfigValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  relay.Config
	}{
		{"negative storage", relay.Config{StorageLimit: -1, CustodyTimer: time.Second}},
		{"zero custody timer", relay.Config{}},
		{"negative custody timer", relay.Config{CustodyTimer: -time.Second}},
		{"negative retry", relay.Config{CustodyTimer: time.Second, RetryInterval: -1}},
		{"negative heal poll", relay.Config{CustodyTimer: time.Second, HealPoll: -1}},
	} {
		err := tc.cfg.Validate()
		if err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
		if !errors.Is(err, alf.ErrConfig) {
			t.Fatalf("%s: error %v does not wrap alf.ErrConfig", tc.name, err)
		}
	}
	if err := (&relay.Config{CustodyTimer: time.Second}).Validate(); err != nil {
		t.Fatalf("minimal valid config rejected: %v", err)
	}
}

// TestCustodyOnlyFromTilingFragments: the relay counts an ADU complete
// only when the fragments it holds tile it. Fragments (0,256),
// (128,128) and (256,128) of a 512-byte ADU sum to 512 bytes but leave
// 384-511 uncovered; the second overlaps the first, so custody keeps
// only the first and third, acknowledges nothing, and the source keeps
// its copy. A fragment that gives the ADU another length is not kept
// either. Every one still goes downstream, where the receiver decides.
// The fragment that fills the hole completes custody, and one custody
// ack reaches the source.
func TestCustodyOnlyFromTilingFragments(t *testing.T) {
	s := sim.NewScheduler()
	net := netsim.New(s, 1)
	src, rly, dst := net.NewNode("src"), net.NewNode("rly"), net.NewNode("dst")
	link := netsim.LinkConfig{RateBps: 100e6, Delay: time.Millisecond}
	su, us := net.NewDuplex(src, rly, link)
	rd, _ := net.NewDuplex(rly, dst, link)
	r, err := relay.New(s, rly, us, rd, relay.Config{CustodyTimer: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	acks := 0
	src.SetHandler(func(p *netsim.Packet) {
		if wire.TypeOf(p.Payload) == wire.TypeCA {
			acks++
		}
	})
	frag := func(total, off, n int) []byte {
		h := wire.Header{Stream: 1, Name: 0, TotalLen: total, FragOff: off, FragLen: n}
		pkt := make([]byte, wire.HeaderSize+n)
		wire.PutHeader(pkt, &h)
		return pkt
	}
	for _, f := range [][]byte{frag(512, 0, 256), frag(512, 128, 128), frag(512, 256, 128), frag(1024, 512, 128)} {
		if err := su.Send(f); err != nil {
			t.Fatal(err)
		}
	}
	s.RunFor(time.Second)
	if r.Stats.ADUsComplete != 0 || acks != 0 || r.Stats.DupFrags != 1 || r.Stats.BadFrames != 1 ||
		r.Stats.StoredFrags != 2 || r.Stats.FwdFragments != 4 {
		t.Fatalf("complete %d, custody acks at the source %d, dups %d, bad %d, stored %d, forwarded %d; want 0, 0, 1, 1, 2, 4",
			r.Stats.ADUsComplete, acks, r.Stats.DupFrags, r.Stats.BadFrames, r.Stats.StoredFrags, r.Stats.FwdFragments)
	}
	if err := su.Send(frag(512, 384, 128)); err != nil {
		t.Fatal(err)
	}
	s.RunFor(time.Second)
	if r.Stats.ADUsComplete != 1 || acks != 1 {
		t.Fatalf("after the tail: complete %d, custody acks at the source %d; want 1 and 1", r.Stats.ADUsComplete, acks)
	}
}
