package session

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	alf "repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/xcode"
)

type hsRig struct {
	sched *sim.Scheduler
	init  *Initiator
	resp  *Responder

	initRes *Result
	respRes *Result
	initErr error
}

func newHSRig(t *testing.T, linkCfg netsim.LinkConfig, supported []xcode.SyntaxID, seed int64) *hsRig {
	t.Helper()
	s := sim.NewScheduler()
	n := netsim.New(s, seed)
	a := n.NewNode("init")
	b := n.NewNode("resp")
	ab, ba := n.NewDuplex(a, b, linkCfg)

	r := &hsRig{sched: s}
	r.init = NewInitiator(s, sim.NewRand(seed+1), ab.Send)
	r.resp = NewResponder(sim.NewRand(seed+2), ba.Send, supported)
	a.SetHandler(func(p *netsim.Packet) { r.init.Handle(p.Payload) })
	b.SetHandler(func(p *netsim.Packet) { r.resp.Handle(p.Payload) })
	r.init.OnEstablished = func(res Result) { cp := res; r.initRes = &cp }
	r.init.OnFail = func(err error) { r.initErr = err }
	r.resp.OnEstablished = func(res Result) { cp := res; r.respRes = &cp }
	return r
}

func allSyntaxes() []xcode.SyntaxID {
	return []xcode.SyntaxID{xcode.SyntaxRaw, xcode.SyntaxBER, xcode.SyntaxXDR, xcode.SyntaxLWTS}
}

func TestHandshakeCleanLink(t *testing.T) {
	r := newHSRig(t, netsim.LinkConfig{Delay: 5 * time.Millisecond}, allSyntaxes(), 1)
	params := Params{
		StreamID: 3,
		Syntaxes: []xcode.SyntaxID{xcode.SyntaxBER, xcode.SyntaxRaw},
		MTU:      2048,
		Policy:   alf.AppRecompute,
		FECGroup: 4,
		RateBps:  1e7,
		Encrypt:  true,
	}
	if err := r.init.Open(params); err != nil {
		t.Fatal(err)
	}
	r.sched.Run()
	if r.initErr != nil {
		t.Fatalf("handshake failed: %v", r.initErr)
	}
	if r.initRes == nil || r.respRes == nil {
		t.Fatal("handshake incomplete")
	}
	if r.initRes.Syntax != xcode.SyntaxBER {
		t.Errorf("syntax = %d, want BER (first preference)", r.initRes.Syntax)
	}
	if r.initRes.Key == 0 || r.initRes.Key != r.respRes.Key {
		t.Errorf("keys disagree: %x vs %x", r.initRes.Key, r.respRes.Key)
	}
	if !r.init.Established() || r.init.failed {
		t.Error("initiator state wrong")
	}
	// Both ends derive identical ALF configs.
	ic, rc := r.initRes.Config(), r.respRes.Config()
	if !reflect.DeepEqual(ic, rc) {
		t.Errorf("configs differ: %+v vs %+v", ic, rc)
	}
	if ic.StreamID != 3 || ic.MTU != 2048 || ic.Policy != alf.AppRecompute ||
		ic.FECGroup != 4 || ic.RateBps != 1e7 || ic.Key == 0 {
		t.Errorf("config lost fields: %+v", ic)
	}
}

func TestHandshakePreferenceOrder(t *testing.T) {
	// The responder supports XDR and raw; the initiator prefers
	// BER > XDR > raw: XDR must win.
	r := newHSRig(t, netsim.LinkConfig{Delay: time.Millisecond},
		[]xcode.SyntaxID{xcode.SyntaxRaw, xcode.SyntaxXDR}, 1)
	r.init.Open(Params{
		StreamID: 1,
		Syntaxes: []xcode.SyntaxID{xcode.SyntaxBER, xcode.SyntaxXDR, xcode.SyntaxRaw},
	})
	r.sched.Run()
	if r.initRes == nil || r.initRes.Syntax != xcode.SyntaxXDR {
		t.Fatalf("negotiated %+v, want XDR", r.initRes)
	}
}

func TestHandshakeNoCommonSyntax(t *testing.T) {
	r := newHSRig(t, netsim.LinkConfig{Delay: time.Millisecond},
		[]xcode.SyntaxID{xcode.SyntaxXDR}, 1)
	r.init.Open(Params{StreamID: 1, Syntaxes: []xcode.SyntaxID{xcode.SyntaxBER}})
	r.sched.Run()
	if !errors.Is(r.initErr, ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected", r.initErr)
	}
	if r.initRes != nil || r.respRes != nil {
		t.Error("rejected handshake established")
	}
	if !r.init.failed {
		t.Error("initiator not marked failed")
	}
}

func TestHandshakeScreening(t *testing.T) {
	r := newHSRig(t, netsim.LinkConfig{Delay: time.Millisecond}, allSyntaxes(), 1)
	r.resp.Screen = func(p Params) byte {
		if p.MTU > 1500 {
			return ReasonBadParams
		}
		return 0
	}
	r.init.Open(Params{StreamID: 1, MTU: 9000, Syntaxes: allSyntaxes()})
	r.sched.Run()
	if !errors.Is(r.initErr, ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected via screen", r.initErr)
	}
}

func TestHandshakeSurvivesLoss(t *testing.T) {
	// 40% loss: retransmitted OFFERs and duplicate ACCEPTs must still
	// converge to one identical result on both sides.
	r := newHSRig(t, netsim.LinkConfig{Delay: 2 * time.Millisecond, LossProb: 0.4},
		allSyntaxes(), 17)
	r.init.RetryInterval = 20 * time.Millisecond
	r.init.MaxRetries = 50
	r.init.Open(Params{StreamID: 5, Syntaxes: allSyntaxes(), Encrypt: true})
	r.sched.Run()
	if r.initErr != nil {
		t.Fatalf("handshake failed under loss: %v", r.initErr)
	}
	if r.initRes == nil || r.respRes == nil {
		t.Fatal("incomplete")
	}
	if r.initRes.Key != r.respRes.Key {
		t.Error("duplicate OFFER handling produced different keys")
	}
}

func TestHandshakeTimeout(t *testing.T) {
	s := sim.NewScheduler()
	i := NewInitiator(s, sim.NewRand(1), func([]byte) error { return nil }) // black hole
	i.RetryInterval = 10 * time.Millisecond
	i.MaxRetries = 3
	var gotErr error
	i.OnFail = func(err error) { gotErr = err }
	i.Open(Params{StreamID: 1, Syntaxes: allSyntaxes()})
	s.Run()
	if !errors.Is(gotErr, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", gotErr)
	}
	if s.Now() < sim.Time(20*time.Millisecond) {
		t.Error("gave up too fast")
	}
}

func TestOpenTwiceRejected(t *testing.T) {
	s := sim.NewScheduler()
	i := NewInitiator(s, sim.NewRand(1), func([]byte) error { return nil })
	if err := i.Open(Params{StreamID: 1, Syntaxes: allSyntaxes()}); err != nil {
		t.Fatal(err)
	}
	if err := i.Open(Params{StreamID: 2, Syntaxes: allSyntaxes()}); !errors.Is(err, ErrState) {
		t.Errorf("second Open err = %v", err)
	}
}

func TestOpenNeedsSyntaxes(t *testing.T) {
	s := sim.NewScheduler()
	i := NewInitiator(s, sim.NewRand(1), func([]byte) error { return nil })
	if err := i.Open(Params{StreamID: 1}); err == nil {
		t.Error("empty syntax list accepted")
	}
}

func TestMessageCorruptionRejected(t *testing.T) {
	offer := encodeOffer(Params{StreamID: 1, Syntaxes: allSyntaxes()}, 42)
	offer[5] ^= 1
	if _, _, err := parseOffer(offer); !errors.Is(err, ErrBadMessage) {
		t.Errorf("corrupt offer err = %v", err)
	}
	acc := encodeAccept(1, xcode.SyntaxBER, 7)
	acc[3] ^= 1
	if _, _, _, err := parseAccept(acc); !errors.Is(err, ErrBadMessage) {
		t.Errorf("corrupt accept err = %v", err)
	}
	rej := encodeReject(1, ReasonRefused)
	rej[2] ^= 1
	if _, _, err := parseReject(rej); !errors.Is(err, ErrBadMessage) {
		t.Errorf("corrupt reject err = %v", err)
	}
}

func TestMessageType(t *testing.T) {
	if MessageType(encodeOffer(Params{StreamID: 1, Syntaxes: allSyntaxes()}, 1)) != typeOffer {
		t.Error("offer type")
	}
	if MessageType(encodeAccept(1, 1, 1)) != typeAccept {
		t.Error("accept type")
	}
	if MessageType([]byte{1, 2, 3}) != 0 || MessageType(nil) != 0 {
		t.Error("non-session types")
	}
}

func TestDescribe(t *testing.T) {
	offer := encodeOffer(Params{StreamID: 4, Syntaxes: allSyntaxes(), MTU: 1500, Policy: alf.NoRetransmit, FECGroup: 4}, 1)
	for _, c := range []struct {
		pkt  []byte
		want string
	}{
		{offer, fmt.Sprintf("session OFFER stream=4 syntaxes=%d mtu=1500 policy=3 fec=4", len(allSyntaxes()))},
		{encodeAccept(4, 2, 9), "session ACCEPT stream=4 syntax=2"},
		{encodeReject(4, ReasonRefused), "session REJECT stream=4 reason=2"},
		{offer[:10], "session: damaged or unknown (10 bytes)"},
		{[]byte{typeAccept}, "session: damaged or unknown (1 bytes)"},
		{[]byte{1, 2, 3}, "session: damaged or unknown (3 bytes)"},
		{nil, "session: damaged or unknown (0 bytes)"},
	} {
		if got := Describe(c.pkt); got != c.want {
			t.Errorf("Describe(%x) = %q, want %q", c.pkt, got, c.want)
		}
	}
}

func TestResponderResultLookup(t *testing.T) {
	r := newHSRig(t, netsim.LinkConfig{Delay: time.Millisecond}, allSyntaxes(), 1)
	r.init.Open(Params{StreamID: 9, Syntaxes: allSyntaxes()})
	r.sched.Run()
	if _, ok := r.resp.Result(9); !ok {
		t.Error("established stream not found")
	}
	if _, ok := r.resp.Result(8); ok {
		t.Error("phantom stream found")
	}
}

func TestEndToEndNegotiatedStream(t *testing.T) {
	// Full integration: handshake on one node pair, then run an
	// encrypted FEC ALF stream with the negotiated config and verify
	// data flows.
	s := sim.NewScheduler()
	n := netsim.New(s, 31)
	a := n.NewNode("a")
	b := n.NewNode("b")
	ab, ba := n.NewDuplex(a, b, netsim.LinkConfig{Delay: 2 * time.Millisecond, LossProb: 0.05})

	var snd *alf.Sender
	var rcv *alf.Receiver
	var got []alf.ADU

	init := NewInitiator(s, sim.NewRand(1), ab.Send)
	resp := NewResponder(sim.NewRand(2), ba.Send, allSyntaxes())

	a.SetHandler(func(p *netsim.Packet) {
		if MessageType(p.Payload) != 0 {
			init.Handle(p.Payload)
			return
		}
		if snd != nil {
			snd.HandleControl(p.Payload)
		}
	})
	b.SetHandler(func(p *netsim.Packet) {
		if MessageType(p.Payload) != 0 {
			resp.Handle(p.Payload)
			return
		}
		if rcv != nil {
			rcv.HandlePacket(p.Payload)
		}
	})

	data := bytes.Repeat([]byte{0x5A}, 20_000)
	resp.OnEstablished = func(res Result) {
		cfg := res.Config()
		cfg.NackDelay = 5 * time.Millisecond
		cfg.NackInterval = 5 * time.Millisecond
		var err error
		rcv, err = alf.NewReceiver(s, ba.Send, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rcv.OnADU = func(adu alf.ADU) { got = append(got, adu) }
	}
	init.OnEstablished = func(res Result) {
		cfg := res.Config()
		cfg.NackDelay = 5 * time.Millisecond
		cfg.NackInterval = 5 * time.Millisecond
		var err error
		snd, err = alf.NewSender(s, ab.Send, cfg)
		if err != nil {
			t.Fatal(err)
		}
		snd.SendRef = ab.SendRef
		if _, err := snd.Send(0, res.Syntax, data); err != nil {
			t.Fatal(err)
		}
	}
	init.RetryInterval = 20 * time.Millisecond
	init.Open(Params{
		StreamID: 7,
		Syntaxes: []xcode.SyntaxID{xcode.SyntaxRaw},
		Encrypt:  true,
		FECGroup: 4,
	})
	s.Run()

	if len(got) != 1 || !bytes.Equal(got[0].Data, data) {
		t.Fatalf("negotiated stream failed: %d ADUs", len(got))
	}
	if got[0].Syntax != xcode.SyntaxRaw {
		t.Errorf("syntax = %d", got[0].Syntax)
	}
}

func TestHandleFuzzNeverPanics(t *testing.T) {
	s := sim.NewScheduler()
	i := NewInitiator(s, sim.NewRand(1), func([]byte) error { return nil })
	i.OnFail = func(error) {}
	i.Open(Params{StreamID: 1, Syntaxes: allSyntaxes()})
	r := NewResponder(sim.NewRand(2), func([]byte) error { return nil }, allSyntaxes())
	f := func(pkt []byte) bool {
		i.Handle(pkt)
		r.Handle(pkt)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestResponderAnswersDuplicateOfferIdentically(t *testing.T) {
	var replies [][]byte
	r := NewResponder(sim.NewRand(3), func(p []byte) error {
		replies = append(replies, append([]byte(nil), p...))
		return nil
	}, allSyntaxes())
	offer := encodeOffer(Params{StreamID: 4, Syntaxes: allSyntaxes(), Encrypt: true}, 77)
	r.Handle(offer)
	r.Handle(offer)
	r.Handle(offer)
	if len(replies) != 3 {
		t.Fatalf("replies = %d", len(replies))
	}
	if !bytes.Equal(replies[0], replies[1]) || !bytes.Equal(replies[1], replies[2]) {
		t.Error("duplicate offers answered differently (key would diverge)")
	}
}
