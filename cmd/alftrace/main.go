// Command alftrace runs a short ALF transfer over an impaired link and
// prints the full packet trace — a tcpdump for the simulated wire. Use
// it to watch fragmentation, loss, NACK recovery, FEC parity, and
// heartbeats interact.
//
// Beyond the per-packet view (logger.go, over wire.Describe), the run
// is also recorded by the span tracer (internal/tracing), so the same
// execution can be rendered as reconstructed ADU lifecycles:
//
//	alftrace                          # defaults: 6 ADUs, 10% loss
//	alftrace -adus 3 -loss 25 -fec 4  # heavier loss, FEC enabled
//	alftrace -seed 9 -encrypt
//	alftrace -spans -attr             # span summary + latency attribution
//	alftrace -adu 2                   # one ADU's full event timeline
//	alftrace -perfetto out.json       # Chrome/Perfetto trace export
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/buf"
	alf "repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/tracing"
	"repro/internal/xcode"
)

// options collects every knob so the whole run is testable as a pure
// (options, writer) function.
type options struct {
	adus    int
	size    int
	loss    float64 // percent
	fec     int
	seed    int64
	encrypt bool
	limit   int64

	packets  bool   // per-packet wire trace (the classic view)
	spans    bool   // span-level run summary
	attr     bool   // per-ADU latency attribution table
	adu      int64  // single-ADU timeline by name (-1 = off)
	perfetto string // write Chrome trace-event JSON here
}

func run(opts options, w io.Writer) error {
	sched := sim.NewScheduler()
	net := netsim.New(sched, opts.seed)
	a := net.NewNode("sender")
	b := net.NewNode("receiver")
	fwd, rev := net.NewDuplex(a, b, netsim.LinkConfig{
		RateBps:  10e6,
		Delay:    5 * time.Millisecond,
		LossProb: opts.loss / 100,
	})

	tracer := tracing.New(sched)
	net.SetTracer(tracer)

	packetOut := w
	if !opts.packets {
		packetOut = io.Discard
	}
	lg := &logger{w: packetOut, sched: sched, limit: opts.limit}

	cfg := alf.Config{
		MTU:          512 + alf.HeaderSize,
		NackDelay:    10 * time.Millisecond,
		NackInterval: 10 * time.Millisecond,
		FECGroup:     opts.fec,
		Tracer:       tracer,
	}
	if opts.encrypt {
		cfg.Suite, cfg.Key = alf.SuiteScramble, 0xC0FFEE
	}
	snd, err := alf.NewSender(sched, lg.wrapSend("snd", fwd.Send), cfg)
	if err != nil {
		return err
	}
	snd.SendRef = func(ref *buf.Ref) error { // data, by reference
		lg.log("->", "snd", ref.Bytes())
		return fwd.SendRef(ref)
	}
	rcv, err := alf.NewReceiver(sched, lg.wrapSend("rcv", rev.Send), cfg)
	if err != nil {
		return err
	}
	a.SetHandler(lg.wrapHandler("snd", func(p *netsim.Packet) { snd.HandleControl(p.Payload) }))
	b.SetHandler(lg.wrapHandler("rcv", func(p *netsim.Packet) { rcv.HandlePacket(p.Payload) }))

	delivered := 0
	rcv.OnADU = func(adu alf.ADU) {
		delivered++
		if opts.packets {
			fmt.Fprintf(w, "%12v ** ADU %d delivered (%d bytes, tag=%#x)\n",
				sched.Now(), adu.Name, len(adu.Data), adu.Tag)
		}
	}
	rcv.OnLost = func(name uint64) {
		if opts.packets {
			fmt.Fprintf(w, "%12v ** ADU %d LOST\n", sched.Now(), name)
		}
	}

	for i := 0; i < opts.adus; i++ {
		data := make([]byte, opts.size)
		for j := range data {
			data[j] = byte(i + j)
		}
		if _, err := snd.Send(uint64(i*opts.size), xcode.SyntaxRaw, data); err != nil {
			return err
		}
	}
	if err := sched.Run(); err != nil {
		return err
	}

	if opts.packets {
		fmt.Fprintf(w, "\n%d/%d ADUs delivered; sender sent %d fragments (%d parity, %d resent); receiver saw %d dup / %d late fragments, recovered %d by FEC\n",
			delivered, opts.adus,
			snd.Stats.Fragments, snd.Stats.ParityFrags, snd.Stats.ResentFrags,
			rcv.Stats.DupFragments, rcv.Stats.LateFragments, rcv.Stats.FECRecovered)
	}

	if opts.spans || opts.attr || opts.adu >= 0 {
		rep := tracer.Analyze()
		if opts.spans {
			if opts.packets {
				fmt.Fprintln(w)
			}
			rep.WriteSummary(w)
		}
		if opts.attr {
			if opts.packets || opts.spans {
				fmt.Fprintln(w)
			}
			rep.WriteAttrTable(w)
		}
		if opts.adu >= 0 {
			if opts.packets || opts.spans || opts.attr {
				fmt.Fprintln(w)
			}
			rep.WriteADU(w, cfg.StreamID, uint64(opts.adu))
		}
	}
	if opts.perfetto != "" {
		var trace bytes.Buffer
		if err := tracer.WritePerfetto(&trace); err != nil {
			return err
		}
		if err := os.WriteFile(opts.perfetto, trace.Bytes(), 0o666); err != nil {
			return err
		}
		fmt.Fprintf(w, "perfetto trace (%d events) written to %s\n", tracer.Len(), opts.perfetto)
	}
	return nil
}

func main() {
	opts := options{packets: true}
	flag.IntVar(&opts.adus, "adus", 6, "ADUs to transfer")
	flag.IntVar(&opts.size, "size", 2048, "bytes per ADU")
	flag.Float64Var(&opts.loss, "loss", 10, "packet loss percent")
	flag.IntVar(&opts.fec, "fec", 0, "FEC group size (0 = off)")
	flag.Int64Var(&opts.seed, "seed", 1, "simulation seed")
	flag.BoolVar(&opts.encrypt, "encrypt", false, "encipher the stream")
	flag.Int64Var(&opts.limit, "limit", 400, "max trace lines (0 = unlimited)")
	flag.BoolVar(&opts.packets, "packets", true, "print the per-packet wire trace")
	flag.BoolVar(&opts.spans, "spans", false, "print the reconstructed span summary")
	flag.BoolVar(&opts.attr, "attr", false, "print the per-ADU latency attribution table")
	flag.Int64Var(&opts.adu, "adu", -1, "print one ADU's full event timeline by name")
	flag.StringVar(&opts.perfetto, "perfetto", "", "write Chrome/Perfetto trace-event JSON to this file")
	flag.Parse()

	if err := run(opts, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
