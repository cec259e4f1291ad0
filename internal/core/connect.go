package alf

import (
	"repro/internal/buf"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// Connect attaches one stream to the simulated network: data and
// heartbeats go up from src toward dst, receiver control comes back
// down toward src, and the two nodes' handlers feed the two endpoints.
// up and down are first hops, a direct link or the way into a routed
// path. Data packets move by reference, the sender's retained buffer
// shared with the network as on every pooled path (the netsim contract:
// nothing on the path writes to them). A node that carries more than
// this one stream needs its own handler, set after Connect returns.
func Connect(sched *sim.Scheduler, src, dst *netsim.Node, up, down *netsim.Link, cfg Config) (*Sender, *Receiver, error) {
	snd, err := NewSender(sched, func(p []byte) error { return netsim.SendVia(up, dst, p) }, cfg)
	if err != nil {
		return nil, nil, err
	}
	snd.SendRef = func(ref *buf.Ref) error { return netsim.SendRefVia(up, dst, ref) }
	rcv, err := NewReceiver(sched, func(p []byte) error { return netsim.SendVia(down, src, p) }, cfg)
	if err != nil {
		return nil, nil, err
	}
	src.SetHandler(func(p *netsim.Packet) { snd.HandleControl(p.Payload) })
	dst.SetHandler(func(p *netsim.Packet) { rcv.HandlePacket(p.Payload) })
	return snd, rcv, nil
}
