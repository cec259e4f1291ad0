package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/session"
	"repro/internal/sim"
	"repro/internal/xcode"
)

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
