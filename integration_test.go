package repro

// Integration tests composing every subsystem of the repository in one
// simulation, the way the paper's "new generation" end system would
// actually be assembled.

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/atm"
	"repro/internal/buf"
	alf "repro/internal/core"
	"repro/internal/filetx"
	"repro/internal/netsim"
	"repro/internal/rpc"
	"repro/internal/session"
	"repro/internal/sim"
	"repro/internal/video"
	"repro/internal/xcode"
)

// TestFullSystemVideoOverATM drives the deepest stack in the repo:
//
//	video source (frame/slice ADUs, NoRetransmit, FEC)
//	  -> session-negotiated ALF stream (encrypted)
//	    -> AAL segmentation -> 53-byte ATM cells
//	      -> lossy cell link
//	    -> AAL reassembly
//	  -> ALF receive (fused decrypt+checksum, FEC recovery)
//	-> playout sink with deadlines
func TestFullSystemVideoOverATM(t *testing.T) {
	s := sim.NewScheduler()
	n := netsim.New(s, 71)
	a := n.NewNode("camera")
	b := n.NewNode("display")

	// Forward path: ATM cells with loss. Reverse: clean control path.
	fwd := n.NewLink(a, b, netsim.LinkConfig{
		RateBps: 150e6, Delay: 5 * time.Millisecond,
		MTU: atm.CellSize, LossProb: 0.002,
	})
	rev := n.NewLink(b, a, netsim.LinkConfig{Delay: 5 * time.Millisecond})

	// Session handshake happens over the cell path too: OFFER/ACCEPT
	// messages are themselves segmented into cells.
	seg := atm.NewSegmenter(1)
	cellSend := func(pkt []byte) error {
		seg.Segment(pkt, func(cell []byte) { fwd.Send(cell) })
		return nil
	}

	var snd *alf.Sender
	var rcv *alf.Receiver
	var sink *video.Sink
	var src *video.Source
	vcfg := video.SourceConfig{FPS: 30, SlicesPerFrame: 4, SliceBytes: 800}
	const frames = 45

	init := session.NewInitiator(s, sim.NewRand(1), cellSend)
	init.RetryInterval = 30 * time.Millisecond
	resp := session.NewResponder(sim.NewRand(2), rev.Send,
		[]xcode.SyntaxID{xcode.SyntaxRaw})

	resp.OnEstablished = func(res session.Result) {
		cfg := res.Config()
		cfg.HoldTime = 200 * time.Millisecond
		cfg.NackInterval = 20 * time.Millisecond
		var err error
		rcv, err = alf.NewReceiver(s, rev.Send, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sink = video.NewSink(s, s.Now(), 50*time.Millisecond, vcfg)
		rcv.OnADU = sink.HandleADU
		rcv.OnLost = sink.HandleLoss
	}
	init.OnEstablished = func(res session.Result) {
		cfg := res.Config()
		cfg.NackInterval = 20 * time.Millisecond
		var err error
		snd, err = alf.NewSender(s, cellSend, cfg)
		if err != nil {
			t.Fatal(err)
		}
		snd.SendRef = func(ref *buf.Ref) error {
			defer ref.Release() // the segmenter copies the packet into cells
			return cellSend(ref.Bytes())
		}
		src = video.NewSource(s, snd, vcfg)
		src.Start(frames)
	}
	init.OnFail = func(err error) { t.Fatalf("handshake: %v", err) }

	reasm := atm.NewReassembler(1, func(mid uint16, msg []byte) {
		if session.MessageType(msg) != 0 {
			resp.Handle(msg)
			return
		}
		if rcv != nil {
			rcv.HandlePacket(msg)
		}
	})
	b.SetHandler(func(p *netsim.Packet) { reasm.Cell(p.Payload) })
	a.SetHandler(func(p *netsim.Packet) {
		if session.MessageType(p.Payload) != 0 {
			init.Handle(p.Payload)
			return
		}
		if snd != nil {
			snd.HandleControl(p.Payload)
		}
	})

	if err := init.Open(session.Params{
		StreamID: 2,
		Syntaxes: []xcode.SyntaxID{xcode.SyntaxRaw},
		Encrypt:  true,
		FECGroup: 2,
		Policy:   alf.NoRetransmit,
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if sink == nil || src == nil {
		t.Fatal("stream never established")
	}
	sink.FlushAll(frames)

	total := sink.Stats.FramesComplete + sink.Stats.FramesPartial + sink.Stats.FramesEmpty
	if total != frames {
		t.Fatalf("accounted %d of %d frames", total, frames)
	}
	// With 0.2% cell loss, FEC(2) recovery, ~19 cells per slice: nearly
	// all frames should render complete.
	if sink.Stats.FramesComplete < frames*8/10 {
		t.Errorf("only %d/%d frames complete (partial %d, empty %d)",
			sink.Stats.FramesComplete, frames,
			sink.Stats.FramesPartial, sink.Stats.FramesEmpty)
	}
	if reasm.Stats.DropsSeqGap == 0 {
		t.Error("no cell loss observed; the test exercised nothing")
	}
	if rcv.Stats.FECRecovered == 0 {
		t.Error("FEC never engaged despite cell loss")
	}
	if snd.Stats.ResentADUs != 0 {
		t.Error("NoRetransmit stream retransmitted")
	}
}

// TestFullSystemRPCWithFileTransfer composes RPC control traffic with a
// bulk file transfer on separate streams sharing the same node pair and
// lossy link — the paper's service-integration scenario (§1): one end
// system, multiple media, one architecture.
func TestFullSystemRPCWithFileTransfer(t *testing.T) {
	s := sim.NewScheduler()
	n := netsim.New(s, 81)
	a := n.NewNode("client")
	b := n.NewNode("server")
	ab, ba := n.NewDuplex(a, b, netsim.LinkConfig{
		RateBps: 50e6, Delay: 4 * time.Millisecond, LossProb: 0.04,
	})

	mk := func(id byte, out, back *netsim.Link) (*alf.Sender, *alf.Receiver) {
		cfg := alf.Config{
			StreamID:  id,
			NackDelay: 8 * time.Millisecond, NackInterval: 8 * time.Millisecond,
		}
		snd, err := alf.NewSender(s, out.Send, cfg)
		if err != nil {
			t.Fatal(err)
		}
		snd.SendRef = out.SendRef
		rcv, err := alf.NewReceiver(s, back.Send, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return snd, rcv
	}
	callSnd, callRcv := mk(1, ab, ba)   // rpc calls a->b
	replySnd, replyRcv := mk(2, ba, ab) // rpc replies b->a
	fileSnd, fileRcv := mk(3, ab, ba)   // bulk file a->b

	a.SetHandler(func(p *netsim.Packet) {
		if callSnd.HandleControl(p.Payload) == nil {
			return
		}
		if fileSnd.HandleControl(p.Payload) == nil {
			return
		}
		replyRcv.HandlePacket(p.Payload)
	})
	b.SetHandler(func(p *netsim.Packet) {
		if replySnd.HandleControl(p.Payload) == nil {
			return
		}
		if callRcv.HandlePacket(p.Payload) == nil {
			return
		}
		fileRcv.HandlePacket(p.Payload)
	})

	// RPC service: progress queries answered while the file flows.
	srv := rpc.NewServer(replySnd, xcode.XDR{})
	var w *filetx.Writer
	srv.Register("progress", func(args xcode.Message) (xcode.Message, error) {
		return xcode.Message{xcode.Int64Value(int64(w.Written()))}, nil
	})
	callRcv.OnADU = srv.HandleCall
	cli := rpc.NewClient(s, callSnd, xcode.XDR{})
	replyRcv.OnADU = cli.HandleReply

	// File transfer.
	data := make([]byte, 400<<10)
	for i := range data {
		data[i] = byte(i * 13)
	}
	chunks := filetx.Plan(data, 8<<10)
	w = filetx.NewWriter(filetx.TotalDst(chunks))
	fileRcv.OnADU = func(adu alf.ADU) {
		if err := w.Apply(adu); err != nil {
			t.Errorf("apply: %v", err)
		}
	}
	if _, err := filetx.Send(fileSnd, chunks, xcode.SyntaxRaw); err != nil {
		t.Fatal(err)
	}

	// Poll progress over RPC every 20 ms; every call must succeed and
	// progress must be monotone.
	var progress []int64
	var poll func()
	poll = func() {
		cli.Go("progress", nil, func(m xcode.Message, err error) {
			if err != nil {
				t.Errorf("progress call: %v", err)
				return
			}
			progress = append(progress, m[0].I64)
		})
		if !w.Complete() {
			s.After(20*time.Millisecond, poll)
		}
	}
	poll()

	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !w.Complete() || !bytes.Equal(w.Bytes(), data) {
		t.Fatalf("file transfer failed (missing %v)", w.MissingRanges())
	}
	if len(progress) < 3 {
		t.Fatalf("only %d progress samples", len(progress))
	}
	for i := 1; i < len(progress); i++ {
		if progress[i] < progress[i-1] {
			t.Fatal("progress regressed")
		}
	}
	if cli.Stats.Timeouts != 0 {
		t.Errorf("%d RPC timeouts while sharing the link", cli.Stats.Timeouts)
	}
}
