package rpc

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/buf"
	alf "repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/xcode"
)

// rig wires a client and server over two ALF streams (calls a->b,
// replies b->a) with independent control channels.
type rig struct {
	sched  *sim.Scheduler
	client *Client
	server *Server
}

func newRig(t *testing.T, linkCfg netsim.LinkConfig, codec xcode.Codec, seed int64) *rig {
	t.Helper()
	s := sim.NewScheduler()
	n := netsim.New(s, seed)
	a := n.NewNode("client")
	b := n.NewNode("server")
	ab, ba := n.NewDuplex(a, b, linkCfg)

	cfg := alf.Config{NackDelay: 5 * time.Millisecond, NackInterval: 5 * time.Millisecond}
	callCfg, replyCfg := cfg, cfg
	callCfg.StreamID = 1
	replyCfg.StreamID = 2

	callSnd, err := alf.NewSender(s, ab.Send, callCfg)
	if err != nil {
		t.Fatal(err)
	}
	callSnd.SendRef = ab.SendRef
	callRcv, err := alf.NewReceiver(s, ba.Send, callCfg)
	if err != nil {
		t.Fatal(err)
	}
	replySnd, err := alf.NewSender(s, ba.Send, replyCfg)
	if err != nil {
		t.Fatal(err)
	}
	replySnd.SendRef = ba.SendRef
	replyRcv, err := alf.NewReceiver(s, ab.Send, replyCfg)
	if err != nil {
		t.Fatal(err)
	}

	// Node demux: each node sees its stream's data plus the other
	// stream's control.
	a.SetHandler(func(p *netsim.Packet) {
		if callSnd.HandleControl(p.Payload) != nil {
			replyRcv.HandlePacket(p.Payload)
		}
	})
	b.SetHandler(func(p *netsim.Packet) {
		if replySnd.HandleControl(p.Payload) != nil {
			callRcv.HandlePacket(p.Payload)
		}
	})

	r := &rig{sched: s}
	r.client = NewClient(s, callSnd, codec)
	r.server = NewServer(replySnd, codec)
	callRcv.OnADU = r.server.HandleCall
	replyRcv.OnADU = r.client.HandleReply
	return r
}

func registerMath(srv *Server) {
	srv.Register("sum", func(args xcode.Message) (xcode.Message, error) {
		var total int64
		for _, a := range args {
			switch a.Kind {
			case xcode.KindInt32, xcode.KindInt64:
				total += a.I64
			case xcode.KindInt32s:
				for _, x := range a.Ints {
					total += int64(x)
				}
			}
		}
		return xcode.Message{xcode.Int64Value(total)}, nil
	})
	srv.Register("echo", func(args xcode.Message) (xcode.Message, error) {
		return args, nil
	})
	srv.Register("fail", func(args xcode.Message) (xcode.Message, error) {
		return nil, errors.New("deliberate failure")
	})
}

func TestBasicCall(t *testing.T) {
	for _, codec := range xcode.Codecs() {
		r := newRig(t, netsim.LinkConfig{Delay: time.Millisecond}, codec, 1)
		registerMath(r.server)
		var got xcode.Message
		var gotErr error
		r.client.Go("sum", xcode.Message{
			xcode.Int32Value(40), xcode.Int32Value(2),
		}, func(m xcode.Message, err error) { got, gotErr = m, err })
		r.sched.Run()
		if gotErr != nil {
			t.Fatalf("%s: %v", codec.Name(), gotErr)
		}
		if len(got) != 1 || got[0].I64 != 42 {
			t.Errorf("%s: result = %+v", codec.Name(), got)
		}
	}
}

func TestEchoAllValueKinds(t *testing.T) {
	r := newRig(t, netsim.LinkConfig{Delay: time.Millisecond}, xcode.XDR{}, 1)
	registerMath(r.server)
	args := xcode.Message{
		xcode.BytesValue([]byte{1, 2, 3}),
		xcode.StringValue("hello"),
		xcode.Int32sValue([]int32{-1, 0, 1}),
		xcode.Int64Value(1 << 40),
	}
	var got xcode.Message
	r.client.Go("echo", args, func(m xcode.Message, err error) {
		if err != nil {
			t.Errorf("echo: %v", err)
		}
		got = m
	})
	r.sched.Run()
	if len(got) != len(args) {
		t.Fatalf("echoed %d of %d values", len(got), len(args))
	}
	for i := range args {
		if !got[i].Equal(args[i]) {
			t.Errorf("value %d mismatch: %+v != %+v", i, got[i], args[i])
		}
	}
}

func TestRemoteError(t *testing.T) {
	r := newRig(t, netsim.LinkConfig{Delay: time.Millisecond}, xcode.BER{}, 1)
	registerMath(r.server)
	var gotErr error
	r.client.Go("fail", nil, func(m xcode.Message, err error) { gotErr = err })
	r.sched.Run()
	if gotErr == nil || !strings.Contains(gotErr.Error(), "deliberate failure") {
		t.Errorf("err = %v", gotErr)
	}
	if r.server.Stats.Errors != 1 {
		t.Errorf("server errors = %d", r.server.Stats.Errors)
	}
}

func TestUnknownMethod(t *testing.T) {
	r := newRig(t, netsim.LinkConfig{Delay: time.Millisecond}, xcode.BER{}, 1)
	var gotErr error
	r.client.Go("nope", nil, func(m xcode.Message, err error) { gotErr = err })
	r.sched.Run()
	if gotErr == nil || !strings.Contains(gotErr.Error(), "no such method") {
		t.Errorf("err = %v", gotErr)
	}
}

func TestConcurrentCallsIndependentUnderLoss(t *testing.T) {
	// The ALF property at the RPC level: many in-flight calls; loss
	// delays only the affected calls. All complete.
	r := newRig(t, netsim.LinkConfig{Delay: 2 * time.Millisecond, LossProb: 0.1}, xcode.XDR{}, 7)
	registerMath(r.server)
	const n = 100
	results := map[int]int64{}
	for i := 0; i < n; i++ {
		i := i
		r.client.Go("sum", xcode.Message{xcode.Int32Value(int32(i)), xcode.Int32Value(int32(i))},
			func(m xcode.Message, err error) {
				if err != nil {
					t.Errorf("call %d: %v", i, err)
					return
				}
				results[i] = m[0].I64
			})
	}
	r.sched.Run()
	if len(results) != n {
		t.Fatalf("completed %d of %d", len(results), n)
	}
	for i, v := range results {
		if v != int64(2*i) {
			t.Errorf("call %d = %d", i, v)
		}
	}
	if len(r.client.pending) != 0 {
		t.Errorf("pending = %d", len(r.client.pending))
	}
}

func TestTimeout(t *testing.T) {
	// Server's replies are blackholed: calls must time out.
	s := sim.NewScheduler()
	cli := NewClient(s, blackhole(t, s), xcode.BER{})
	cli.Timeout = 100 * time.Millisecond
	var gotErr error
	cli.Go("x", nil, func(m xcode.Message, err error) { gotErr = err })
	s.Run()
	if !errors.Is(gotErr, ErrTimeout) {
		t.Errorf("err = %v, want ErrTimeout", gotErr)
	}
	if cli.Stats.Timeouts != 1 || len(cli.pending) != 0 {
		t.Errorf("stats = %+v pending = %d", cli.Stats, len(cli.pending))
	}
}

func TestLateReplyIsOrphan(t *testing.T) {
	s := sim.NewScheduler()
	cli := NewClient(s, blackhole(t, s), xcode.BER{})
	cli.Timeout = 10 * time.Millisecond
	cli.Go("x", nil, func(m xcode.Message, err error) {})
	s.Run() // times out
	enc, _ := xcode.EncodeMessage(xcode.BER{}, nil, xcode.Message{xcode.Int32Value(statusOK)})
	cli.HandleReply(alf.ADU{Tag: 0, Data: enc})
	if cli.Stats.Orphans != 1 {
		t.Errorf("orphans = %d", cli.Stats.Orphans)
	}
}

func TestBadCallDropped(t *testing.T) {
	srv := NewServer(blackhole(t, sim.NewScheduler()), xcode.BER{})
	srv.HandleCall(alf.ADU{Tag: 1, Data: []byte{0xFF, 0xFF}})
	if srv.Stats.BadCalls != 1 {
		t.Errorf("bad calls = %d", srv.Stats.BadCalls)
	}
	// A call whose first value is not a method name.
	enc, _ := xcode.EncodeMessage(xcode.BER{}, nil, xcode.Message{xcode.Int32Value(1)})
	srv.HandleCall(alf.ADU{Tag: 2, Data: enc})
	if srv.Stats.BadCalls != 2 {
		t.Errorf("bad calls = %d", srv.Stats.BadCalls)
	}
}

// blackhole returns a sender on sched whose packets go nowhere.
func blackhole(t *testing.T, sched *sim.Scheduler) *alf.Sender {
	t.Helper()
	snd, err := alf.NewSender(sched, nil, alf.Config{})
	if err != nil {
		t.Fatal(err)
	}
	snd.SendRef = func(ref *buf.Ref) error { ref.Release(); return nil }
	return snd
}

func TestNestedStructuredArguments(t *testing.T) {
	// RPC arguments are structured records (§5): nested sequences must
	// survive the trip in every codec.
	for _, codec := range xcode.Codecs() {
		r := newRig(t, netsim.LinkConfig{Delay: time.Millisecond}, codec, 1)
		r.server.Register("describe", func(args xcode.Message) (xcode.Message, error) {
			rec := args[0]
			if rec.Kind != xcode.KindSeq {
				return nil, errors.New("want a record")
			}
			return xcode.Message{xcode.Int32Value(int32(len(rec.Seq)))}, nil
		})
		rec := xcode.SeqValue(
			xcode.StringValue("user"),
			xcode.Int32Value(99),
			xcode.SeqValue(xcode.StringValue("nested"), xcode.BytesValue([]byte{1})),
		)
		var got int64 = -1
		r.client.Go("describe", xcode.Message{rec}, func(m xcode.Message, err error) {
			if err != nil {
				t.Errorf("%s: %v", codec.Name(), err)
				return
			}
			got = m[0].I64
		})
		r.sched.Run()
		if got != 3 {
			t.Errorf("%s: field count = %d, want 3", codec.Name(), got)
		}
	}
}
