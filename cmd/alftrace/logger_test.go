package main

import (
	"bytes"
	"strings"
	"testing"
	"time"

	alf "repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/session"
	"repro/internal/sim"
	"repro/internal/xcode"
)

func TestLoggerEndToEnd(t *testing.T) {
	s := sim.NewScheduler()
	n := netsim.New(s, 1)
	a := n.NewNode("a")
	b := n.NewNode("b")
	ab, ba := n.NewDuplex(a, b, netsim.LinkConfig{Delay: time.Millisecond})

	var buf bytes.Buffer
	lg := &logger{w: &buf, sched: s}
	snd, _ := alf.NewSender(s, lg.wrapSend("snd", ab.Send), alf.Config{})
	rcv, _ := alf.NewReceiver(s, lg.wrapSend("rcv", ba.Send), alf.Config{})
	a.SetHandler(lg.wrapHandler("snd", func(p *netsim.Packet) { snd.HandleControl(p.Payload) }))
	b.SetHandler(lg.wrapHandler("rcv", func(p *netsim.Packet) { rcv.HandlePacket(p.Payload) }))

	snd.Send(0, xcode.SyntaxRaw, make([]byte, 100))
	s.Run()

	out := buf.String()
	if !strings.Contains(out, "-> snd") || !strings.Contains(out, "<- rcv") {
		t.Errorf("directions missing:\n%s", out)
	}
	if !strings.Contains(out, "DATA") || !strings.Contains(out, "CTRL") {
		t.Errorf("protocol lines missing:\n%s", out)
	}
	if lg.lines == 0 {
		t.Error("no lines counted")
	}
}

func TestLoggerLimit(t *testing.T) {
	var buf bytes.Buffer
	lg := &logger{w: &buf, sched: sim.NewScheduler(), limit: 2}
	send := lg.wrapSend("x", func([]byte) error { return nil })
	for i := 0; i < 5; i++ {
		send([]byte{1})
	}
	out := buf.String()
	if strings.Count(out, "\n") != 3 { // 2 lines + truncation notice
		t.Errorf("output:\n%s", out)
	}
	if !strings.Contains(out, "truncated") {
		t.Error("no truncation notice")
	}
}

// TestDescribeRoutesSessionMessages: the handshake shares the ALF
// channel, and its frames are rendered by the package that encodes them.
func TestDescribeRoutesSessionMessages(t *testing.T) {
	s := sim.NewScheduler()
	var offer []byte
	i := session.NewInitiator(s, sim.NewRand(1), func(p []byte) error {
		offer = append([]byte(nil), p...)
		return nil
	})
	if err := i.Open(session.Params{StreamID: 3, Syntaxes: []xcode.SyntaxID{xcode.SyntaxRaw}}); err != nil {
		t.Fatal(err)
	}
	if got := describe(offer); !strings.HasPrefix(got, "session OFFER stream=3 ") {
		t.Errorf("offer rendered as %q", got)
	}
	if got := describe([]byte{3}); !strings.HasPrefix(got, "alf HB: damaged") {
		t.Errorf("ALF frame rendered as %q", got)
	}
}
