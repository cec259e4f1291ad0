// RPC over ALF: each call is one ADU, each reply is one ADU on the
// reverse stream, arguments travel in a negotiable transfer syntax
// (ASN.1 BER here), and concurrent calls never head-of-line block each
// other — a lost call packet delays only that call.
//
//	go run ./examples/rpcdemo
package main

import (
	"fmt"
	"log"
	"time"

	alf "repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/xcode"
)

func main() {
	sched := sim.NewScheduler()
	net := netsim.New(sched, 5)
	cn := net.NewNode("client")
	sn := net.NewNode("server")
	fwd, rev := net.NewDuplex(cn, sn, netsim.LinkConfig{
		Delay: 8 * time.Millisecond, LossProb: 0.08,
	})

	// Two ALF streams: calls client->server, replies server->client.
	mkStream := func(id byte, out, back *netsim.Link) (*alf.Sender, *alf.Receiver) {
		cfg := alf.Config{
			StreamID:     id,
			NackDelay:    10 * time.Millisecond,
			NackInterval: 10 * time.Millisecond,
		}
		s, err := alf.NewSender(sched, out.Send, cfg)
		if err != nil {
			log.Fatal(err)
		}
		s.SendRef = out.SendRef
		r, err := alf.NewReceiver(sched, back.Send, cfg)
		if err != nil {
			log.Fatal(err)
		}
		return s, r
	}
	callSnd, callRcv := mkStream(1, fwd, rev)
	replySnd, replyRcv := mkStream(2, rev, fwd)

	cn.SetHandler(func(p *netsim.Packet) {
		if callSnd.HandleControl(p.Payload) != nil {
			replyRcv.HandlePacket(p.Payload)
		}
	})
	sn.SetHandler(func(p *netsim.Packet) {
		if replySnd.HandleControl(p.Payload) != nil {
			callRcv.HandlePacket(p.Payload)
		}
	})

	// The service: statistics over integer arrays, marshalled in BER.
	server := rpc.NewServer(replySnd, xcode.BER{})
	server.Register("stats.sum", func(args xcode.Message) (xcode.Message, error) {
		var total int64
		for _, a := range args {
			for _, x := range a.Ints {
				total += int64(x)
			}
		}
		return xcode.Message{xcode.Int64Value(total)}, nil
	})
	server.Register("strings.upper", func(args xcode.Message) (xcode.Message, error) {
		out := make(xcode.Message, len(args))
		for i, a := range args {
			s := a.Str
			b := []byte(s)
			for j := range b {
				if b[j] >= 'a' && b[j] <= 'z' {
					b[j] -= 32
				}
			}
			out[i] = xcode.StringValue(string(b))
		}
		return out, nil
	})
	callRcv.OnADU = server.HandleCall

	client := rpc.NewClient(sched, callSnd, xcode.BER{})
	replyRcv.OnADU = client.HandleReply

	// Fire a burst of concurrent calls; report completion times to show
	// that a lost call's recovery delays only itself.
	fmt.Println("20 concurrent stats.sum calls over an 8%-loss link:")
	for i := 0; i < 20; i++ {
		i := i
		arr := make([]int32, 100)
		for j := range arr {
			arr[j] = int32(i + j)
		}
		issued := sched.Now()
		client.Go("stats.sum", xcode.Message{xcode.Int32sValue(arr)},
			func(m xcode.Message, err error) {
				if err != nil {
					fmt.Printf("  call %2d: ERROR %v\n", i, err)
					return
				}
				fmt.Printf("  call %2d -> %6d   (rtt %v)\n", i, m[0].I64, sched.Now().Sub(issued))
			})
	}
	client.Go("strings.upper", xcode.Message{xcode.StringValue("application level framing")},
		func(m xcode.Message, err error) {
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  strings.upper -> %q\n", m[0].Str)
		})

	if err := sched.Run(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nserver handled %d calls; client: %d replies, %d timeouts\n",
		server.Stats.Calls, client.Stats.Replies, client.Stats.Timeouts)
}
