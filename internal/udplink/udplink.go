// Package udplink binds the ALF stack to real UDP sockets: the same
// Sender/Receiver endpoints that run over netsim run unmodified over
// the kernel network stack, which is the point — the protocol
// architecture was never simulator-shaped.
//
// Three things bridge the two worlds:
//
//   - Link wraps a net.PacketConn with the netsim.Link send contract
//     (Send for copied control frames, SendRef for pooled refcounted
//     wire packets) and pooled receive buffers from internal/buf.
//     Sends queue and flush once per event-loop pass. The socket
//     itself sits behind one seam, sockIO: "block until a message is
//     readable, then take up to batch" and "write these queued
//     buffers to the peer". NewLink picks one of its two
//     implementations, once. On linux/amd64 and linux/arm64, for a
//     *net.UDPConn (bare or inside a *LossyConn), mmsgIO issues
//     recvmmsg and sendmmsg on the raw descriptor, and each message of
//     either is a train: a run of queued datagrams of one length,
//     closed if the queue has one by a shorter datagram, that the
//     kernel takes as one buffer and cuts at the last moment
//     (UDP_SEGMENT) and hands back uncut (UDP_GRO). Segmentation
//     happens below the unit the endpoints hand over: an ADU's
//     fragments cross the kernel in one traversal and the
//     reader-to-loop hop in one step, the handler still sees one
//     datagram per call, and the steady state allocates nothing.
//     Everywhere else, and for any other net.PacketConn (a tracing or
//     fault-injecting wrapper), connIO does one blocking ReadFrom and
//     one WriteTo per datagram. Either way the link drops, and counts
//     in Dropped, datagrams longer than maxDatagram and datagrams that
//     do not come from its peer.
//   - Clock drives an unmodified *sim.Scheduler against the wall
//     clock: virtual time is wall time since Run started, due timers
//     fire on the loop goroutine, and the loop sleeps exactly until
//     the scheduler's next deadline (sim.Scheduler.NextAt) or the next
//     datagram, whichever comes first.
//   - Everything protocol-visible stays single-threaded: handlers,
//     timers, and sends all run on the Clock's loop goroutine, the
//     same discipline the simulator enforces, so the endpoints need no
//     locks. So is the pool: reader goroutines only read into their
//     link's receive ring (Link.rx) and hand what they read to the loop.
package udplink

import (
	"errors"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/buf"
	"repro/internal/sim"
)

// inboxDepth is the arrival channel depth shared by all links. A slot
// holds one message, a datagram or a train, in the buffer it was read
// into. A full inbox, or an empty receive ring, applies backpressure to
// readers.
const inboxDepth = 512

// The readers accept datagrams of up to maxDatagram bytes. That is not
// the size of a receive buffer on the batch path: a socket that took
// UDP_GRO reads into 64 KiB buffers, since a message there may be a
// whole train, and the link compares each train's segment length with
// maxDatagram.
//
// batch bounds the recvmmsg and sendmmsg vectors: how many messages
// (trains of up to 64 datagrams) one system call reads or writes on the
// batch path. A flush of more than that takes several calls. The
// portable path moves one datagram per call. A reader keeps batch
// receive buffers posted, and as many more can be in the inbox or
// being dispatched, so a batch-path link's ring of ringDepth buffers
// holds 4 MiB of pool memory while its socket is open; a peer that
// does not send trains fills each with one datagram, which is why the
// vector stays this long.
const (
	maxDatagram = 2048
	batch       = 32
	ringDepth   = 2 * batch
)

// Config parameterizes a Clock. Zero fields take defaults.
type Config struct {
	// MaxIdle caps how long the loop sleeps when the scheduler is idle
	// and no datagrams arrive (default 50 ms).
	MaxIdle time.Duration
	// Pool supplies the links' receive rings and Send's copies
	// (default buf.Default). Like the endpoints' pool it belongs to the
	// loop goroutine, which NewLink must also run on.
	Pool *buf.Pool
}

func (c *Config) fill() {
	if c.MaxIdle == 0 {
		c.MaxIdle = 50 * time.Millisecond
	}
	if c.Pool == nil {
		c.Pool = buf.Default
	}
}

// arrival is one received message in flight from a reader goroutine to
// the loop: a lone datagram, or on the batch path a train of them back
// to back in one buffer.
type arrival struct {
	link *Link
	ref  *buf.Ref // a ring buffer, its view untrimmed; nil in a reader's last
	n    int      // the message's length
	seg  int      // each datagram's length, but for the last, which is what is left
}

// Clock runs a virtual-time scheduler against the wall clock and
// dispatches socket arrivals into it. Create with NewClock, add links,
// then Run on one goroutine.
type Clock struct {
	sched *sim.Scheduler
	cfg   Config
	inbox chan arrival
	links []*Link
	stopc chan struct{}
	start time.Time
}

// NewClock wraps sched for real-time execution.
func NewClock(sched *sim.Scheduler, cfg Config) *Clock {
	cfg.fill()
	return &Clock{
		sched: sched,
		cfg:   cfg,
		inbox: make(chan arrival, inboxDepth),
		stopc: make(chan struct{}),
	}
}

// NewLink attaches a socket. Datagrams sent via the link go to peer;
// datagrams arriving from peer are handed to the link's handler on the
// loop goroutine, and whatever else reaches the socket is dropped and
// counted. The reader goroutine starts immediately; the caller still
// owns closing conn (which stops the reader).
//
// This is the one place that picks the link's sockIO: batched system
// calls where the platform and the conn allow them, the portable
// per-datagram calls otherwise.
func (c *Clock) NewLink(conn net.PacketConn, peer net.Addr) *Link {
	l := &Link{clk: c, rx: make(chan *buf.Ref, ringDepth), rxSize: maxDatagram + 1}
	if l.io = newMmsgIO(conn, peer, l); l.io == nil {
		l.io = &connIO{conn: conn, peer: peer, l: l}
	}
	for range ringDepth {
		l.bufs = append(l.bufs, c.cfg.Pool.Get(l.rxSize))
		l.rx <- l.bufs[len(l.bufs)-1]
	}
	c.links = append(c.links, l)
	go l.readLoop()
	return l
}

// Stop makes Run return after the current pass. Safe from any
// goroutine, once.
func (c *Clock) Stop() { close(c.stopc) }

// now maps wall time onto the scheduler's virtual timeline.
func (c *Clock) now() sim.Time { return sim.Time(time.Since(c.start)) }

// Run executes the loop until Stop is called or done (if non-nil)
// returns true. Virtual time zero is the moment Run starts, so timers
// armed before Run fire the right wall delay after it.
func (c *Clock) Run(done func() bool) {
	c.start = time.Now()
	idle := time.NewTimer(time.Hour)
	defer idle.Stop()
	for {
		now := c.now()
		_ = c.sched.RunUntil(now)
		c.flushAll()
		if done != nil && done() {
			return
		}
		// Sleep until the next scheduled event or the idle cap,
		// interrupted by any arrival.
		wait := c.cfg.MaxIdle
		if at, ok := c.sched.NextAt(); ok {
			if w := time.Duration(at - now); w < wait {
				wait = w
			}
			if wait < 0 {
				wait = 0
			}
		}
		if !idle.Stop() {
			select {
			case <-idle.C:
			default:
			}
		}
		idle.Reset(wait)
		select {
		case a := <-c.inbox:
			// Advance the clock to the arrival's wall moment before the
			// handler runs, so timers it arms measure from now, then
			// drain the burst — one wakeup, many packets.
			_ = c.sched.RunUntil(c.now())
			c.dispatch(a)
			for len(c.inbox) > 0 {
				c.dispatch(<-c.inbox)
			}
		case <-idle.C:
		case <-c.stopc:
			return
		}
	}
}

// dispatch hands each datagram of one message to its link's handler,
// in order, and puts the buffer back in the ring (a reader's last
// arrival gives the ring back to the pool). A datagram's slice ends
// where the next starts, capacity included, so a handler that appends
// to it gets a copy and leaves the neighbour alone.
func (c *Clock) dispatch(a arrival) {
	if a.ref == nil {
		for _, ref := range a.link.bufs {
			ref.Release()
		}
		return
	}
	b, h := a.ref.Bytes()[:a.n], a.link.handler
	a.link.stats.recvd.Add(int64(datagrams(len(b), a.seg)))
	for {
		k := len(b)
		if 0 < a.seg && a.seg < k {
			k = a.seg
		}
		if h != nil {
			h(b[:k:k])
		}
		if b = b[k:]; len(b) == 0 {
			break
		}
	}
	a.link.rx <- a.ref
}

// flushAll writes every link's queued sends.
func (c *Clock) flushAll() {
	for _, l := range c.links {
		l.flush()
	}
}

// sockIO is the link's seam to its socket. Both implementations keep
// the link's counters: a datagram longer than maxDatagram or from an
// address other than the peer is dropped and counted, never returned.
type sockIO interface {
	// recv blocks until at least one message from the peer is readable,
	// then takes up to batch of them into ring buffers that the caller
	// comes to own. It fills in each arrival's ref, n and seg; in has
	// room for batch. It is called from the reader goroutine only, and
	// fails with net.ErrClosed if the clock stops while it waits for one.
	recv(in []arrival) (int, error)
	// send writes the datagrams to the peer, in order. A datagram that
	// cannot be written is counted and skipped; the caller keeps its
	// references. It is called from the loop goroutine only.
	send(out []*buf.Ref)
}

// counters are a link's statistics, shared with its sockIO.
type counters struct {
	sent     atomic.Int64
	recvd    atomic.Int64
	dropped  atomic.Int64 // received but not accepted: longer than maxDatagram, or not from the peer
	sendErrs atomic.Int64
	rxCalls  atomic.Int64
	txCalls  atomic.Int64
	rxMsgs   atomic.Int64
	txMsgs   atomic.Int64
}

// connIO is the portable sockIO, for any net.PacketConn on any
// platform: one blocking ReadFrom and one WriteTo per datagram.
type connIO struct {
	conn net.PacketConn
	peer net.Addr
	l    *Link
	buf  *buf.Ref // the next read's buffer, kept across failed and dropped reads
}

func (c *connIO) recv(in []arrival) (int, error) {
	for {
		if c.buf == nil {
			if c.buf = c.l.take(); c.buf == nil {
				return 0, net.ErrClosed
			}
		}
		c.l.stats.rxCalls.Add(1)
		n, from, err := c.conn.ReadFrom(c.buf.Bytes())
		if err != nil {
			return 0, err
		}
		c.l.stats.rxMsgs.Add(1)
		if n > maxDatagram || !sameAddr(from, c.peer) {
			c.l.stats.dropped.Add(1)
			continue
		}
		in[0], c.buf = arrival{ref: c.buf, n: n, seg: n}, nil
		return 1, nil
	}
}

func (c *connIO) send(out []*buf.Ref) {
	errs := 0
	for _, ref := range out {
		if _, err := c.conn.WriteTo(ref.Bytes(), c.peer); err != nil {
			errs++
		}
	}
	c.l.stats.txCalls.Add(int64(len(out)))
	c.l.stats.txMsgs.Add(int64(len(out) - errs))
	c.l.stats.sendErrs.Add(int64(errs))
	c.l.stats.sent.Add(int64(len(out) - errs))
}

// sameAddr reports whether a datagram's source is the link's peer.
func sameAddr(from, peer net.Addr) bool {
	f, ok := from.(*net.UDPAddr)
	p, ok2 := peer.(*net.UDPAddr)
	if ok && ok2 {
		return f.Port == p.Port && f.Zone == p.Zone && f.IP.Equal(p.IP)
	}
	return from != nil && from.Network() == peer.Network() && from.String() == peer.String()
}

// Link is one direction-agnostic UDP attachment: sends go to the
// configured peer, receives come from the socket. It implements the
// same contract as netsim.Link (Send copies, SendRef consumes the
// caller's reference), so alf.Sender.SendRef and the control channels
// plug in unchanged.
type Link struct {
	clk     *Clock
	io      sockIO
	handler func([]byte)

	// rx is the receive ring, after a NIC's: bufs go round in it between
	// the reader, which reads into them (take), and the loop, which
	// dispatches them and puts them back, so the reader never touches
	// the pool. It has room for all of them, so no put blocks.
	rx     chan *buf.Ref
	bufs   []*buf.Ref
	rxSize int // maxDatagram+1, so that a longer datagram shows as such instead of clipped; groBufSize with UDP_GRO

	// out is the batched send queue, owned by the loop goroutine: the
	// endpoints send from timer callbacks and handlers (both on the
	// loop), and the queue flushes once per pass.
	out []*buf.Ref

	stats counters
}

// SetHandler installs the arrival handler (runs on the loop
// goroutine). The slice is only valid during the call.
func (l *Link) SetHandler(h func([]byte)) { l.handler = h }

// Sent, Recvd, Dropped and SendErrs count datagrams, whatever messages
// carried them. Sent includes those a LossyConn ate. SendErrs counts
// datagrams the kernel refused one by one; a train it refuses goes out
// again as lone datagrams first. Dropped counts what the socket
// received and the link refused: datagrams longer than maxDatagram
// (which would otherwise arrive clipped) and datagrams from anyone but
// the peer. A train is refused whole, so a short datagram that closes a
// train of over-long ones goes with them. A full inbox is not a drop:
// the reader blocks, and it is the kernel's socket buffer that
// overflows.
func (l *Link) Sent() int64     { return l.stats.sent.Load() }
func (l *Link) Recvd() int64    { return l.stats.recvd.Load() }
func (l *Link) Dropped() int64  { return l.stats.dropped.Load() }
func (l *Link) SendErrs() int64 { return l.stats.sendErrs.Load() }

// RxCalls and TxCalls count the receive and send calls made on the
// socket: recvmmsg and sendmmsg entries on the batch path (a recvmmsg
// that finds the socket empty and a sendmmsg that fails included),
// ReadFrom and WriteTo calls on the portable one. Against Recvd and
// Sent they give calls per datagram.
func (l *Link) RxCalls() int64 { return l.stats.rxCalls.Load() }
func (l *Link) TxCalls() int64 { return l.stats.txCalls.Load() }

// RxMsgs and TxMsgs count the messages those calls read and wrote. On
// the batch path a message is a train of one or more datagrams, so
// Sent/TxMsgs is the mean train length written (a datagram a LossyConn
// ate is in Sent but in no message) and (Recvd+Dropped)/RxMsgs the
// mean length read; on the portable path a message is a datagram.
func (l *Link) RxMsgs() int64 { return l.stats.rxMsgs.Load() }
func (l *Link) TxMsgs() int64 { return l.stats.txMsgs.Load() }

// Send queues one datagram, copying p into a pooled buffer (the caller
// may reuse p immediately — the contract control-plane senders
// expect). Must be called on the loop goroutine.
func (l *Link) Send(p []byte) error {
	ref := l.clk.cfg.Pool.Get(len(p))
	copy(ref.Bytes(), p)
	l.out = append(l.out, ref)
	return nil
}

// SendRef queues one datagram, consuming the caller's reference — the
// zero-copy path alf.Sender.SendRef uses. Must be called on the loop
// goroutine.
func (l *Link) SendRef(ref *buf.Ref) error {
	l.out = append(l.out, ref)
	return nil
}

// flush writes the queued datagrams. One flush per loop pass hands the
// socket everything the endpoints emitted during that pass (a paced
// burst, a whole ADU's fragments) at once, which is what lets the batch
// path find trains in it.
func (l *Link) flush() {
	if len(l.out) == 0 {
		return
	}
	l.io.send(l.out)
	for i, ref := range l.out {
		ref.Release()
		l.out[i] = nil
	}
	l.out = l.out[:0]
}

// Pauses between receives that keep failing: a lone failure is retried
// at once, the second in a row waits readBackoffMin, each further one
// twice as long, up to readBackoffMax.
const (
	readBackoffMin = time.Millisecond
	readBackoffMax = 100 * time.Millisecond
)

// readLoop is the per-socket reader: it moves what sockIO.recv takes
// from the socket into the loop's inbox. Exits when the socket closes
// or the clock stops, and then tells a running loop, which gives the
// link's buffers back to the pool. A UDP socket surfaces transient errors
// (connection-refused from ICMP) that clear on their own, so any other
// error keeps the reader alive; consecutive ones back off, so an error
// that does not clear cannot spin the reader.
func (l *Link) readLoop() {
	defer l.deliver(arrival{link: l})
	in := make([]arrival, batch)
	fails := 0 // consecutive failed receives
	for {
		n, err := l.io.recv(in)
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			if fails++; fails > 1 && !l.pause(fails-1) {
				return
			}
			continue
		}
		fails = 0
		for i := range in[:n] {
			in[i].link = l
			if !l.deliver(in[i]) {
				return
			}
		}
	}
}

// deliver hands one received message to the loop. It reports false
// only when the clock has stopped (time to exit the reader).
func (l *Link) deliver(a arrival) bool {
	select {
	case l.clk.inbox <- a:
		return true
	case <-l.clk.stopc:
		return false
	}
}

// take returns a buffer from the ring, waiting for the loop to put one
// back, or nil once the clock has stopped. The reader is the ring's only
// taker, so a ring that is not empty stays so until it takes.
func (l *Link) take() *buf.Ref {
	if len(l.rx) > 0 {
		return <-l.rx
	}
	select {
	case ref := <-l.rx:
		return ref
	case <-l.clk.stopc:
		return nil
	}
}

// pause is the nth pause of a run of failed receives. It reports false
// when the clock stopped meanwhile (time to exit the reader).
func (l *Link) pause(n int) bool {
	t := time.NewTimer(min(readBackoffMin<<min(n-1, 10), readBackoffMax))
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-l.clk.stopc:
		return false
	}
}
