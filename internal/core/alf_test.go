package alf

import (
	"bytes"
	"errors"
	"sort"
	"testing"
	"time"

	"repro/internal/buf"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/wire"
	"repro/internal/xcode"
)

// pair is an ALF stream put on netsim by Connect: data flows a->b,
// control flows b->a. ab and ba are the first hops.
type pair struct {
	sched *sim.Scheduler
	net   *netsim.Network
	a, b  *netsim.Node
	ab    *netsim.Link
	ba    *netsim.Link
	snd   *Sender
	rcv   *Receiver
	adus  []ADU
	lost  []uint64
}

// newPair connects a stream across one duplex link.
func newPair(t testing.TB, linkCfg netsim.LinkConfig, cfg Config, seed int64) *pair {
	t.Helper()
	p := &pair{sched: sim.NewScheduler()}
	p.net = netsim.New(p.sched, seed)
	p.a, p.b = p.net.NewNode("a"), p.net.NewNode("b")
	p.ab, p.ba = p.net.NewDuplex(p.a, p.b, linkCfg)
	return p.connect(t, cfg)
}

// newRoutedPair connects a stream across a router, a -> r -> b and
// back; the router forwards by reference, so the path copies no data.
func newRoutedPair(t testing.TB, linkCfg netsim.LinkConfig, cfg Config, seed int64) *pair {
	t.Helper()
	p := &pair{sched: sim.NewScheduler()}
	p.net = netsim.New(p.sched, seed)
	p.a, p.b = p.net.NewNode("a"), p.net.NewNode("b")
	r := p.net.NewRouter("r")
	var ra, rb *netsim.Link
	p.ab, ra = p.net.NewDuplex(p.a, r.Node, linkCfg)
	rb, p.ba = p.net.NewDuplex(r.Node, p.b, linkCfg)
	r.AddRoute(p.b, rb)
	r.AddRoute(p.a, ra)
	return p.connect(t, cfg)
}

func (p *pair) connect(t testing.TB, cfg Config) *pair {
	t.Helper()
	var err error
	if p.snd, p.rcv, err = Connect(p.sched, p.a, p.b, p.ab, p.ba, cfg); err != nil {
		t.Fatal(err)
	}
	p.rcv.OnADU = func(a ADU) { p.adus = append(p.adus, a) }
	p.rcv.OnLost = func(name uint64) { p.lost = append(p.lost, name) }
	return p
}

// reinstallReceiver replaces the b-side packet handler of a pair;
// tests use it to interpose corruption or drops between the link and
// the receiver. The hook gets a copy: a data packet's payload is the
// sender's retained buffer, which nothing on the path may write to (a
// resend re-emits it).
func reinstallReceiver(p *pair, h func([]byte)) {
	p.b.SetHandler(func(pk *netsim.Packet) { h(append([]byte(nil), pk.Payload...)) })
}

// testSender is NewSender for a test whose sink is in memory: out sees
// every packet the sender emits, heartbeats through NewSender's send
// and data and parity through SendRef, for the length of the call; the
// packet is released when out returns, so a sink that keeps one copies
// it.
func testSender(sched *sim.Scheduler, out func([]byte) error, cfg Config) (*Sender, error) {
	snd, err := NewSender(sched, out, cfg)
	if err != nil {
		return nil, err
	}
	snd.SendRef = func(ref *buf.Ref) error {
		err := out(ref.Bytes())
		ref.Release()
		return err
	}
	return snd, nil
}

func payload(n int, fill byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = fill + byte(i%13)
	}
	return b
}

func (p *pair) aduByName(name uint64) *ADU {
	for i := range p.adus {
		if p.adus[i].Name == name {
			return &p.adus[i]
		}
	}
	return nil
}

func TestSingleADU(t *testing.T) {
	p := newPair(t, netsim.LinkConfig{Delay: time.Millisecond}, Config{}, 1)
	data := payload(100, 1)
	name, err := p.snd.Send(42, xcode.SyntaxRaw, data)
	if err != nil {
		t.Fatal(err)
	}
	if name != 0 {
		t.Errorf("first name = %d", name)
	}
	p.sched.Run()
	if len(p.adus) != 1 {
		t.Fatalf("delivered %d ADUs", len(p.adus))
	}
	got := p.adus[0]
	if got.Name != 0 || got.Tag != 42 || got.Syntax != xcode.SyntaxRaw {
		t.Errorf("ADU meta = %+v", got)
	}
	if !bytes.Equal(got.Data, data) {
		t.Error("payload mismatch")
	}
}

func TestEmptyADU(t *testing.T) {
	p := newPair(t, netsim.LinkConfig{Delay: time.Millisecond}, Config{}, 1)
	if _, err := p.snd.Send(7, xcode.SyntaxRaw, nil); err != nil {
		t.Fatal(err)
	}
	p.sched.Run()
	if len(p.adus) != 1 || len(p.adus[0].Data) != 0 {
		t.Fatalf("empty ADU not delivered: %+v", p.adus)
	}
}

func TestMultiFragmentADU(t *testing.T) {
	cfg := Config{MTU: 128 + HeaderSize} // 128-byte fragments
	p := newPair(t, netsim.LinkConfig{Delay: time.Millisecond}, cfg, 1)
	data := payload(10_000, 3)
	p.snd.Send(0, xcode.SyntaxRaw, data)
	p.sched.Run()
	if len(p.adus) != 1 || !bytes.Equal(p.adus[0].Data, data) {
		t.Fatal("multi-fragment ADU corrupted")
	}
	if p.snd.Stats.Fragments < 70 {
		t.Errorf("fragments = %d, want ~79", p.snd.Stats.Fragments)
	}
}

func TestManyADUsInOrderCleanLink(t *testing.T) {
	p := newPair(t, netsim.LinkConfig{RateBps: 1e8, Delay: time.Millisecond}, Config{}, 1)
	const n = 200
	for i := 0; i < n; i++ {
		p.snd.Send(uint64(i*1000), xcode.SyntaxRaw, payload(500, byte(i)))
	}
	p.sched.Run()
	if len(p.adus) != n {
		t.Fatalf("delivered %d of %d", len(p.adus), n)
	}
	if p.rcv.Stats.OutOfOrder != 0 {
		t.Errorf("out-of-order deliveries on a clean FIFO link: %d", p.rcv.Stats.OutOfOrder)
	}
	if p.rcv.Settled() != n {
		t.Errorf("settled = %d", p.rcv.Settled())
	}
}

func TestOutOfOrderDeliveryUnderLoss(t *testing.T) {
	// The ALF property: a lost ADU does NOT hold up ADUs behind it.
	cfg := Config{NackDelay: 5 * time.Millisecond, NackInterval: 5 * time.Millisecond}
	p := newPair(t, netsim.LinkConfig{Delay: time.Millisecond, LossProb: 0.1}, cfg, 3)
	const n = 300
	for i := 0; i < n; i++ {
		p.snd.Send(uint64(i), xcode.SyntaxRaw, payload(900, byte(i)))
	}
	p.sched.Run()
	if len(p.adus) != n {
		t.Fatalf("delivered %d of %d (lost: %v)", len(p.adus), n, p.lost)
	}
	if p.rcv.Stats.OutOfOrder == 0 {
		t.Error("no out-of-order deliveries despite loss — ALF head-of-line freedom missing")
	}
	if p.snd.Stats.ResentADUs == 0 {
		t.Error("no resends despite loss")
	}
	// Every ADU delivered exactly once, contents intact.
	seen := map[uint64]bool{}
	for _, a := range p.adus {
		if seen[a.Name] {
			t.Fatalf("ADU %d delivered twice", a.Name)
		}
		seen[a.Name] = true
		if !bytes.Equal(a.Data, payload(900, byte(a.Name))) {
			t.Fatalf("ADU %d corrupted", a.Name)
		}
	}
}

func TestLossOfFragmentLosesWholeADUOnly(t *testing.T) {
	// Drop one specific fragment of ADU 5; ADUs 0-4 and 6-9 must be
	// delivered before recovery completes ADU 5.
	cfg := Config{MTU: 256 + HeaderSize, NackDelay: 10 * time.Millisecond,
		NackInterval: 10 * time.Millisecond}
	p := newPair(t, netsim.LinkConfig{Delay: time.Millisecond}, cfg, 1)
	s, snd, rcv := p.sched, p.snd, p.rcv
	dropOne := true
	reinstallReceiver(p, func(pkt []byte) {
		if dropOne && wire.TypeOf(pkt) == wire.TypeData {
			h, err := wire.ParseHeader(pkt)
			if err == nil && h.Name == 5 && h.FragOff == 256 {
				dropOne = false
				return
			}
		}
		rcv.HandlePacket(pkt)
	})

	type ev struct {
		name uint64
		at   sim.Time
	}
	var order []ev
	rcv.OnADU = func(adu ADU) { order = append(order, ev{adu.Name, s.Now()}) }

	for i := 0; i < 10; i++ {
		snd.Send(uint64(i), xcode.SyntaxRaw, payload(1000, byte(i)))
	}
	s.Run()

	if len(order) != 10 {
		t.Fatalf("delivered %d of 10", len(order))
	}
	at := map[uint64]sim.Time{}
	for _, e := range order {
		at[e.name] = e.at
	}
	// ADU 9 must not wait for ADU 5's recovery.
	if at[9] >= at[5] {
		t.Errorf("ADU 9 delivered at %v, after damaged ADU 5 at %v — head-of-line blocking", at[9], at[5])
	}
	if at[5].Sub(at[4]) < 5*time.Millisecond {
		t.Errorf("ADU 5 recovered suspiciously fast: %v after ADU 4", at[5].Sub(at[4]))
	}
}

func TestEncryptedStream(t *testing.T) {
	cfg := Config{Suite: SuiteScramble, Key: 0xDEADBEEF, MTU: 256 + HeaderSize}
	p := newPair(t, netsim.LinkConfig{Delay: time.Millisecond,
		ReorderProb: 0.3, ReorderDelay: 3 * time.Millisecond}, cfg, 5)
	const n = 50
	for i := 0; i < n; i++ {
		p.snd.Send(uint64(i), xcode.SyntaxRaw, payload(2000, byte(i)))
	}
	p.sched.Run()
	if len(p.adus) != n {
		t.Fatalf("delivered %d of %d", len(p.adus), n)
	}
	for _, a := range p.adus {
		if !bytes.Equal(a.Data, payload(2000, byte(a.Name))) {
			t.Fatalf("encrypted ADU %d decrypted wrong", a.Name)
		}
	}
}

func TestEncryptionActuallyCiphers(t *testing.T) {
	// Sniff the wire: payload bytes must not equal the plaintext.
	s := sim.NewScheduler()
	cfg := Config{Suite: SuiteScramble, Key: 123}
	var onWire []byte
	snd, _ := testSender(s, func(pkt []byte) error {
		if wire.TypeOf(pkt) == wire.TypeData {
			onWire = append([]byte(nil), pkt[HeaderSize:]...)
		}
		return nil
	}, cfg)
	data := payload(64, 9)
	snd.Send(0, xcode.SyntaxRaw, data)
	s.Run()
	if bytes.Equal(onWire, data) {
		t.Error("payload traveled in cleartext despite Key")
	}
}

func TestCorruptionRejectedAndRecovered(t *testing.T) {
	cfg := Config{NackDelay: 5 * time.Millisecond, NackInterval: 5 * time.Millisecond}
	p := newPair(t, netsim.LinkConfig{Delay: time.Millisecond, BitErrorRate: 2e-6}, cfg, 7)
	const n = 100
	for i := 0; i < n; i++ {
		p.snd.Send(uint64(i), xcode.SyntaxRaw, payload(1000, byte(i)))
	}
	p.sched.Run()
	if len(p.adus) != n {
		t.Fatalf("delivered %d of %d", len(p.adus), n)
	}
	if p.rcv.Stats.ChecksumFails == 0 && p.rcv.Stats.HeaderDrops == 0 {
		t.Error("no corruption observed; raise BitErrorRate")
	}
	for _, a := range p.adus {
		if !bytes.Equal(a.Data, payload(1000, byte(a.Name))) {
			t.Fatalf("corrupted ADU %d delivered", a.Name)
		}
	}
}

func TestNoRetransmitReportsLoss(t *testing.T) {
	cfg := Config{
		Policy:       NoRetransmit,
		NackInterval: 5 * time.Millisecond,
		HoldTime:     50 * time.Millisecond,
	}
	p := newPair(t, netsim.LinkConfig{Delay: time.Millisecond, LossProb: 0.15}, cfg, 9)
	const n = 200
	for i := 0; i < n; i++ {
		p.snd.Send(uint64(i), xcode.SyntaxRaw, payload(800, byte(i)))
	}
	p.sched.Run()
	if len(p.lost) == 0 {
		t.Fatal("no losses reported at 15% loss")
	}
	if p.snd.Stats.ResentADUs != 0 || p.snd.Stats.RecomputeADUs != 0 {
		t.Error("NoRetransmit stream retransmitted")
	}
	if p.rcv.Stats.NacksSent != 0 {
		t.Error("NoRetransmit receiver sent NACKs")
	}
	if len(p.adus)+len(p.lost) != n {
		t.Errorf("delivered %d + lost %d != %d", len(p.adus), len(p.lost), n)
	}
	if p.rcv.Settled() != n {
		t.Errorf("settled = %d, want %d", p.rcv.Settled(), n)
	}
}

func TestAppRecomputePolicy(t *testing.T) {
	cfg := Config{
		Policy:       AppRecompute,
		NackDelay:    5 * time.Millisecond,
		NackInterval: 5 * time.Millisecond,
	}
	p := newPair(t, netsim.LinkConfig{Delay: time.Millisecond, LossProb: 0.1}, cfg, 11)
	recomputes := 0
	p.snd.OnResend = func(name uint64) (uint64, xcode.SyntaxID, []byte, bool) {
		recomputes++
		return name * 10, xcode.SyntaxRaw, payload(700, byte(name)), true
	}
	const n = 150
	for i := 0; i < n; i++ {
		p.snd.Send(uint64(i*10), xcode.SyntaxRaw, payload(700, byte(i)))
	}
	p.sched.Run()
	if len(p.adus) != n {
		t.Fatalf("delivered %d of %d", len(p.adus), n)
	}
	if recomputes == 0 {
		t.Error("recompute callback never used")
	}
	if p.snd.BufferedBytes() != 0 {
		t.Error("AppRecompute sender retained buffers")
	}
	for _, a := range p.adus {
		if !bytes.Equal(a.Data, payload(700, byte(a.Name))) {
			t.Fatalf("ADU %d wrong after recompute", a.Name)
		}
	}
}

func TestSenderBufferReleasedByCumAck(t *testing.T) {
	cfg := Config{NackInterval: 5 * time.Millisecond}
	p := newPair(t, netsim.LinkConfig{Delay: time.Millisecond}, cfg, 1)
	released := []uint64{}
	p.snd.OnRelease = func(name uint64) { released = append(released, name) }
	const n = 20
	for i := 0; i < n; i++ {
		p.snd.Send(uint64(i), xcode.SyntaxRaw, payload(100, byte(i)))
	}
	p.sched.Run()
	if p.snd.BufferedADUs() != 0 || p.snd.BufferedBytes() != 0 {
		t.Errorf("retention not released: %d ADUs, %d bytes",
			p.snd.BufferedADUs(), p.snd.BufferedBytes())
	}
	if len(released) != n {
		t.Errorf("released %d of %d", len(released), n)
	}
	sort.Slice(released, func(i, j int) bool { return released[i] < released[j] })
	for i, name := range released {
		if name != uint64(i) {
			t.Fatalf("release sequence wrong: %v", released)
		}
	}
}

func TestBufferLimitEnforced(t *testing.T) {
	s := sim.NewScheduler()
	cfg := Config{BufferLimit: 1000}
	snd, _ := testSender(s, func([]byte) error { return nil }, cfg)
	if _, err := snd.Send(0, xcode.SyntaxRaw, payload(600, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := snd.Send(1, xcode.SyntaxRaw, payload(600, 2)); !errors.Is(err, ErrBufferLimit) {
		t.Errorf("err = %v, want ErrBufferLimit", err)
	}
}

func TestADUTooLarge(t *testing.T) {
	s := sim.NewScheduler()
	snd, _ := testSender(s, func([]byte) error { return nil }, Config{MaxADU: 100})
	if _, err := snd.Send(0, xcode.SyntaxRaw, payload(101, 1)); !errors.Is(err, ErrADUTooLarge) {
		t.Errorf("err = %v, want ErrADUTooLarge", err)
	}
}

func TestMTUTooSmall(t *testing.T) {
	s := sim.NewScheduler()
	if _, err := NewSender(s, nil, Config{MTU: HeaderSize + 4}); !errors.Is(err, ErrMTUTooSmall) {
		t.Errorf("sender err = %v", err)
	}
	if _, err := NewReceiver(s, nil, Config{MTU: HeaderSize + 4}); !errors.Is(err, ErrMTUTooSmall) {
		t.Errorf("receiver err = %v", err)
	}
}

func TestPacingSpacesFragments(t *testing.T) {
	s := sim.NewScheduler()
	var times []sim.Time
	cfg := Config{RateBps: 8e6, MTU: 1000 + HeaderSize} // ~1ms per ~1KB fragment
	snd, _ := testSender(s, func(pkt []byte) error {
		if wire.TypeOf(pkt) == wire.TypeData {
			times = append(times, s.Now())
		}
		return nil
	}, cfg)
	snd.Send(0, xcode.SyntaxRaw, payload(5000, 1))
	s.Run()
	if len(times) < 5 {
		t.Fatalf("fragments = %d", len(times))
	}
	for i := 1; i < len(times); i++ {
		gap := times[i].Sub(times[i-1])
		if gap < 900*time.Microsecond {
			t.Errorf("fragment %d gap %v, want ~1ms (paced)", i, gap)
		}
	}
	last := times[len(times)-1]
	if last < sim.Time(4*time.Millisecond) {
		t.Errorf("last fragment at %v, want ~4-5ms", last)
	}
}

func TestSetRateTakesEffect(t *testing.T) {
	s := sim.NewScheduler()
	var times []sim.Time
	cfg := Config{MTU: 1000 + HeaderSize}
	snd, _ := testSender(s, func(pkt []byte) error {
		if wire.TypeOf(pkt) == wire.TypeData {
			times = append(times, s.Now())
		}
		return nil
	}, cfg)
	snd.Send(0, xcode.SyntaxRaw, payload(2000, 1)) // unpaced: immediate
	if len(times) != 2 || times[1] != 0 {
		t.Fatalf("unpaced send not immediate: %v", times)
	}
	snd.SetRate(8e6)
	times = nil
	snd.Send(1, xcode.SyntaxRaw, payload(2000, 1))
	s.Run()
	if len(times) != 2 || times[1].Sub(times[0]) < 900*time.Microsecond {
		t.Errorf("paced send not spaced: %v", times)
	}
}

func TestDuplicateFragmentsIgnored(t *testing.T) {
	p := newPair(t, netsim.LinkConfig{Delay: time.Millisecond, DupProb: 0.5}, Config{}, 13)
	const n = 50
	for i := 0; i < n; i++ {
		p.snd.Send(uint64(i), xcode.SyntaxRaw, payload(3000, byte(i)))
	}
	p.sched.Run()
	if len(p.adus) != n {
		t.Fatalf("delivered %d of %d", len(p.adus), n)
	}
	if p.rcv.Stats.DupFragments == 0 && p.rcv.Stats.LateFragments == 0 {
		t.Error("no duplicates seen despite DupProb=0.5")
	}
}

func TestStreamDemux(t *testing.T) {
	s := sim.NewScheduler()
	n := netsim.New(s, 1)
	a := n.NewNode("a")
	b := n.NewNode("b")
	ab, ba := n.NewDuplex(a, b, netsim.LinkConfig{Delay: time.Millisecond})

	mk := func(id byte) (*Sender, *Receiver, *[]ADU) {
		cfg := Config{StreamID: id}
		snd, rcv, _ := Connect(s, a, b, ab, ba, cfg)
		var got []ADU
		rcv.OnADU = func(adu ADU) { got = append(got, adu) }
		return snd, rcv, &got
	}
	s1, r1, g1 := mk(1)
	s2, r2, g2 := mk(2)
	// Both streams share the nodes, so the handlers Connect set give
	// way to ones that offer each frame to the endpoints in turn until
	// one does not answer ErrWrongStream.
	a.SetHandler(func(pk *netsim.Packet) {
		for _, snd := range []*Sender{s1, s2} {
			if snd.HandleControl(pk.Payload) != ErrWrongStream {
				return
			}
		}
	})
	b.SetHandler(func(pk *netsim.Packet) {
		for _, rcv := range []*Receiver{r1, r2} {
			if rcv.HandlePacket(pk.Payload) != ErrWrongStream {
				return
			}
		}
	})
	s1.Send(0, xcode.SyntaxRaw, payload(100, 0xA))
	s2.Send(0, xcode.SyntaxRaw, payload(100, 0xB))
	s.Run()
	if len(*g1) != 1 || len(*g2) != 1 {
		t.Fatalf("stream demux failed: %d/%d", len(*g1), len(*g2))
	}
	if (*g1)[0].Data[0] != 0xA || (*g2)[0].Data[0] != 0xB {
		t.Error("streams crossed")
	}
}

func TestTagAndSyntaxCarried(t *testing.T) {
	p := newPair(t, netsim.LinkConfig{Delay: time.Millisecond}, Config{}, 1)
	enc, _ := xcode.EncodeMessage(xcode.BER{}, nil, xcode.Message{xcode.Int32Value(7)})
	p.snd.Send(0xCAFEBABE, xcode.SyntaxBER, enc)
	p.sched.Run()
	if len(p.adus) != 1 {
		t.Fatal("not delivered")
	}
	if p.adus[0].Tag != 0xCAFEBABE || p.adus[0].Syntax != xcode.SyntaxBER {
		t.Errorf("meta lost: %+v", p.adus[0])
	}
}

func TestHeaderCorruptionDropped(t *testing.T) {
	s := sim.NewScheduler()
	rcv, _ := NewReceiver(s, nil, Config{})
	// Valid-ish header with flipped bit.
	snd, _ := testSender(s, func(pkt []byte) error {
		if wire.TypeOf(pkt) != wire.TypeData {
			return nil
		}
		bad := append([]byte(nil), pkt...)
		bad[3] ^= 0x10
		if err := rcv.HandlePacket(bad); err == nil {
			t.Error("corrupt header accepted")
		}
		return nil
	}, Config{})
	snd.Send(0, xcode.SyntaxRaw, payload(64, 1))
	s.Run()
	if rcv.Stats.HeaderDrops != 1 {
		t.Errorf("HeaderDrops = %d", rcv.Stats.HeaderDrops)
	}
}

func TestRuntimeShortPacket(t *testing.T) {
	s := sim.NewScheduler()
	rcv, _ := NewReceiver(s, nil, Config{})
	if err := rcv.HandlePacket([]byte{1, 2, 3}); !errors.Is(err, ErrBadHeader) {
		t.Errorf("err = %v", err)
	}
	if err := rcv.HandlePacket(nil); !errors.Is(err, ErrBadHeader) {
		t.Errorf("nil err = %v", err)
	}
}

func TestControlRoundtrip(t *testing.T) {
	c := &wire.Control{Stream: 3, Cum: 12345, Nacks: []uint64{1, 5, 9}}
	enc := wire.EncodeControl(nil, c)
	got, err := wire.ParseControl(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stream != 3 || got.Cum != 12345 || len(got.Nacks) != 3 || got.Nacks[1] != 5 {
		t.Errorf("parsed %+v", got)
	}
	// Corruption detected.
	enc[5] ^= 1
	if _, err := wire.ParseControl(enc); err == nil {
		t.Error("corrupt control accepted")
	}
}

func TestHeaderRoundtrip(t *testing.T) {
	h := wire.Header{
		Stream: 9, Name: 1 << 40, Tag: 0xFFFFFFFFFFFFFFFF,
		Syntax: xcode.SyntaxXDR, Flags: wire.FlagEnciphered,
		TotalLen: 1 << 20, FragOff: 4096, FragLen: 1024, ADUCheck: 0xBEEF,
	}
	buf := make([]byte, HeaderSize+1024)
	wire.PutHeader(buf, &h)
	got, err := wire.ParseHeader(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Errorf("roundtrip: %+v != %+v", got, h)
	}
}

func TestPacketType(t *testing.T) {
	if wire.TypeOf([]byte{1, 0}) != wire.TypeData || wire.TypeOf([]byte{2}) != wire.TypeCtrl ||
		wire.TypeOf([]byte{9}) != 0 || wire.TypeOf(nil) != 0 {
		t.Error("TypeOf misclassifies")
	}
}

func TestPolicyString(t *testing.T) {
	if SenderBuffered.String() != "sender-buffered" ||
		AppRecompute.String() != "app-recompute" ||
		NoRetransmit.String() != "no-retransmit" ||
		Policy(99).String() != "invalid-policy" {
		t.Error("Policy.String wrong")
	}
	// Set reads back every name String writes, and nothing else.
	for _, want := range []Policy{SenderBuffered, AppRecompute, NoRetransmit} {
		var p Policy
		if err := p.Set(want.String()); err != nil || p != want {
			t.Errorf("Set(%q) = %v, %v", want, p, err)
		}
	}
	p := AppRecompute
	if err := p.Set("invalid-policy"); err == nil || p != AppRecompute {
		t.Errorf("Set(invalid-policy) = %v, %v; want an error and no change", p, err)
	}
}

func TestHostileLinkEndToEnd(t *testing.T) {
	cfg := Config{
		Suite:        SuiteScramble,
		Key:          0x1234,
		MTU:          512 + HeaderSize,
		NackDelay:    5 * time.Millisecond,
		NackInterval: 5 * time.Millisecond,
		MaxNacks:     50,
		HoldTime:     5 * time.Second,
	}
	p := newPair(t, netsim.LinkConfig{
		RateBps: 2e7, Delay: 2 * time.Millisecond, QueueLimit: 200,
		LossProb: 0.05, DupProb: 0.03, ReorderProb: 0.1,
		ReorderDelay: 3 * time.Millisecond, BitErrorRate: 1e-7,
	}, cfg, 17)
	const n = 150
	for i := 0; i < n; i++ {
		p.snd.Send(uint64(i), xcode.SyntaxRaw, payload(2500, byte(i)))
	}
	p.sched.Run()
	if len(p.adus)+len(p.lost) != n {
		t.Fatalf("settled %d+%d of %d", len(p.adus), len(p.lost), n)
	}
	if len(p.adus) < n*9/10 {
		t.Errorf("only %d of %d delivered on recoverable stream", len(p.adus), n)
	}
	for _, a := range p.adus {
		if !bytes.Equal(a.Data, payload(2500, byte(a.Name))) {
			t.Fatalf("ADU %d corrupted end-to-end", a.Name)
		}
	}
}

func TestLossesExpressedInADUNames(t *testing.T) {
	// The paper's requirement: losses must be reported in application
	// terms. Force total loss of one ADU and verify OnLost gets its
	// name.
	s := sim.NewScheduler()
	cfg := Config{
		NackDelay: 2 * time.Millisecond, NackInterval: 2 * time.Millisecond,
		MaxNacks: 2, HoldTime: 20 * time.Millisecond,
	}
	var rcv *Receiver
	snd, _ := testSender(s, func(pkt []byte) error {
		h, err := wire.ParseHeader(pkt)
		if err == nil && h.Name == 1 {
			return nil // ADU 1 never arrives, ever
		}
		return rcv.HandlePacket(pkt)
	}, cfg)
	rcv, _ = NewReceiver(s, snd.HandleControl, cfg)
	var lost []uint64
	rcv.OnLost = func(name uint64) { lost = append(lost, name) }
	var got []uint64
	rcv.OnADU = func(a ADU) { got = append(got, a.Name) }

	for i := 0; i < 3; i++ {
		snd.Send(uint64(i), xcode.SyntaxRaw, payload(100, byte(i)))
	}
	s.Run()
	if len(lost) != 1 || lost[0] != 1 {
		t.Fatalf("lost = %v, want [1]", lost)
	}
	if len(got) != 2 {
		t.Errorf("delivered = %v", got)
	}
	if rcv.Settled() != 3 {
		t.Errorf("settled = %d, want 3 (loss settles the name)", rcv.Settled())
	}
}

func TestSettledFrontierInvariants(t *testing.T) {
	// Under arbitrary impairments, for every seed: the settled frontier
	// never regresses, and every name below it is accounted exactly
	// once (delivered xor lost).
	for seed := int64(1); seed <= 8; seed++ {
		cfg := Config{
			MTU:          512 + HeaderSize,
			NackDelay:    5 * time.Millisecond,
			NackInterval: 5 * time.Millisecond,
			MaxNacks:     5,
			HoldTime:     200 * time.Millisecond,
			FECGroup:     2,
		}
		p := newPair(t, netsim.LinkConfig{
			RateBps: 2e7, Delay: 2 * time.Millisecond, QueueLimit: 64,
			LossProb: 0.08, DupProb: 0.05, ReorderProb: 0.1,
			ReorderDelay: 4 * time.Millisecond, BitErrorRate: 5e-7,
		}, cfg, seed)

		delivered := map[uint64]int{}
		lost := map[uint64]int{}
		var frontier uint64
		check := func() {
			if s := p.rcv.Settled(); s < frontier {
				t.Fatalf("seed %d: settled regressed %d -> %d", seed, frontier, s)
			} else {
				frontier = s
			}
		}
		p.rcv.OnADU = func(adu ADU) { delivered[adu.Name]++; check() }
		p.rcv.OnLost = func(name uint64) { lost[name]++; check() }

		const n = 60
		for i := 0; i < n; i++ {
			if _, err := p.snd.Send(uint64(i), xcode.SyntaxRaw, payload(1500, byte(i))); err != nil {
				t.Fatal(err)
			}
		}
		p.sched.Run()

		if p.rcv.Settled() != n {
			t.Fatalf("seed %d: settled = %d, want %d", seed, p.rcv.Settled(), n)
		}
		for i := uint64(0); i < n; i++ {
			d, l := delivered[i], lost[i]
			if d+l != 1 {
				t.Errorf("seed %d: name %d accounted %d times (delivered %d, lost %d)",
					seed, i, d+l, d, l)
			}
		}
	}
}
