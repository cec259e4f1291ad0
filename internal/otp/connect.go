package otp

import (
	"repro/internal/buf"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// Connect attaches one connection to the simulated network: a's
// segments go out on ab toward b and b's on ba toward a, both by
// reference, and the two nodes' handlers feed the two ends. ab and ba
// are first hops, a direct link or the way into a routed path. The two
// configs differ where the ends are labelled apart (metric prefixes,
// tracer stream ids).
func Connect(sched *sim.Scheduler, a, b *netsim.Node, ab, ba *netsim.Link, cfgA, cfgB Config) (*Conn, *Conn) {
	ca := New(sched, func(ref *buf.Ref) error { return netsim.SendRefVia(ab, b, ref) }, cfgA)
	cb := New(sched, func(ref *buf.Ref) error { return netsim.SendRefVia(ba, a, ref) }, cfgB)
	a.SetHandler(func(p *netsim.Packet) { ca.HandleSegment(p.Payload) })
	b.SetHandler(func(p *netsim.Packet) { cb.HandleSegment(p.Payload) })
	return ca, cb
}
