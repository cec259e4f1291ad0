// Session negotiation: the out-of-band control plane (§3) establishes
// an ALF stream — transfer syntax chosen from the initiator's
// preference list, keys combined from both sides, FEC and policy agreed
// — and then typed application values flow as encrypted ADUs.
//
//	go run ./examples/negotiate
package main

import (
	"fmt"
	"log"
	"time"

	alf "repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/session"
	"repro/internal/sim"
	"repro/internal/xcode"
)

func main() {
	sched := sim.NewScheduler()
	net := netsim.New(sched, 11)
	a := net.NewNode("initiator")
	b := net.NewNode("responder")
	fwd, rev := net.NewDuplex(a, b, netsim.LinkConfig{
		Delay: 8 * time.Millisecond, LossProb: 0.15, // even the handshake must survive loss
	})

	var snd *alf.Sender
	var rcv *alf.Receiver

	init := session.NewInitiator(sched, sim.NewRand(1), fwd.Send)
	init.RetryInterval = 30 * time.Millisecond
	// The responder only speaks XDR and raw.
	resp := session.NewResponder(sim.NewRand(2), rev.Send,
		[]xcode.SyntaxID{xcode.SyntaxXDR, xcode.SyntaxRaw})

	a.SetHandler(func(p *netsim.Packet) {
		if session.MessageType(p.Payload) != 0 {
			init.Handle(p.Payload)
		} else if snd != nil {
			snd.HandleControl(p.Payload)
		}
	})
	b.SetHandler(func(p *netsim.Packet) {
		if session.MessageType(p.Payload) != 0 {
			resp.Handle(p.Payload)
		} else if rcv != nil {
			rcv.HandlePacket(p.Payload)
		}
	})

	resp.OnEstablished = func(res session.Result) {
		fmt.Printf("%10v  responder: stream %d established, syntax=%d, key=%#x\n",
			sched.Now(), res.Params.StreamID, res.Syntax, res.Key)
		cfg := res.Config()
		cfg.NackDelay = 15 * time.Millisecond
		cfg.NackInterval = 15 * time.Millisecond
		var err error
		rcv, err = alf.NewReceiver(sched, rev.Send, cfg)
		if err != nil {
			log.Fatal(err)
		}
		codec, _ := xcode.ByID(res.Syntax)
		rcv.OnADU = func(adu alf.ADU) {
			v, _, err := codec.DecodeValue(adu.Data)
			if err != nil {
				log.Fatalf("decode: %v", err)
			}
			fmt.Printf("%10v  responder: ADU %d -> %s value (%d wire bytes)\n",
				sched.Now(), adu.Name, v.Kind, len(adu.Data))
		}
	}

	init.OnEstablished = func(res session.Result) {
		fmt.Printf("%10v  initiator: negotiated syntax=%d (wanted BER first), key=%#x\n",
			sched.Now(), res.Syntax, res.Key)
		cfg := res.Config()
		cfg.NackDelay = 15 * time.Millisecond
		cfg.NackInterval = 15 * time.Millisecond
		var err error
		snd, err = alf.NewSender(sched, fwd.Send, cfg)
		if err != nil {
			log.Fatal(err)
		}
		snd.SendRef = fwd.SendRef
		codec, _ := xcode.ByID(res.Syntax)
		values := []xcode.Value{
			xcode.Int32sValue([]int32{3, 1, 4, 1, 5, 9, 2, 6}),
			xcode.StringValue("negotiated, encrypted, FEC-protected"),
			xcode.BytesValue(make([]byte, 5000)),
		}
		for i, v := range values {
			enc, err := codec.EncodeValue(nil, v)
			if err != nil {
				log.Fatal(err)
			}
			if _, err := snd.Send(uint64(i), res.Syntax, enc); err != nil {
				log.Fatal(err)
			}
		}
	}
	init.OnFail = func(err error) { log.Fatalf("handshake failed: %v", err) }

	err := init.Open(session.Params{
		StreamID: 1,
		// Preference: BER first — the responder will force XDR.
		Syntaxes: []xcode.SyntaxID{xcode.SyntaxBER, xcode.SyntaxXDR, xcode.SyntaxRaw},
		Encrypt:  true,
		FECGroup: 4,
		Policy:   alf.SenderBuffered,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := sched.Run(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndone at %v; sender stats: %d fragments (+%d parity, %d resent)\n",
		sched.Now(), snd.Stats.Fragments, snd.Stats.ParityFrags, snd.Stats.ResentFrags)
}
