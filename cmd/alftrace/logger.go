package main

import (
	"fmt"
	"io"

	"repro/internal/netsim"
	"repro/internal/session"
	"repro/internal/sim"
	"repro/internal/wire"
)

// logger annotates send functions and node handlers with timestamped,
// tcpdump-style trace lines on an io.Writer.
type logger struct {
	w     io.Writer
	sched *sim.Scheduler
	// lines counts emitted entries; limit (if >0) silences output after
	// that many lines so a trace cannot drown a long run.
	lines int64
	limit int64
}

// describe renders one packet of an ALF channel, which carries the
// session handshake as well (the type bytes are disjoint).
func describe(pkt []byte) string {
	if session.MessageType(pkt) != 0 {
		return session.Describe(pkt)
	}
	return wire.Describe(pkt)
}

func (l *logger) log(dir, label string, pkt []byte) {
	l.lines++
	if l.limit > 0 && l.lines > l.limit {
		if l.lines == l.limit+1 {
			fmt.Fprintf(l.w, "… trace truncated at %d lines\n", l.limit)
		}
		return
	}
	fmt.Fprintf(l.w, "%12v %s %-10s %s\n", l.sched.Now(), dir, label, describe(pkt))
}

// wrapSend returns a send function that logs each packet ("->") before
// forwarding to next.
func (l *logger) wrapSend(label string, next func([]byte) error) func([]byte) error {
	return func(pkt []byte) error {
		l.log("->", label, pkt)
		return next(pkt)
	}
}

// wrapHandler returns a node handler that logs each arrival ("<-", or
// "<!" for a packet the network corrupted) before forwarding to next.
func (l *logger) wrapHandler(label string, next netsim.Handler) netsim.Handler {
	return func(pk *netsim.Packet) {
		dir := "<-"
		if pk.Corrupted {
			dir = "<!"
		}
		l.log(dir, label, pk.Payload)
		next(pk)
	}
}
