// Package udplink binds the ALF stack to real UDP sockets: the same
// Sender/Receiver endpoints that run over netsim run unmodified over
// the kernel network stack, which is the point — the protocol
// architecture was never simulator-shaped.
//
// Three things bridge the two worlds:
//
//   - Link wraps a net.PacketConn with the netsim.Link send contract
//     (Send for copied control frames, SendRef for pooled refcounted
//     wire packets), pooled receive buffers from internal/buf, and
//     batched I/O: sends queue and flush once per event-loop pass, and
//     the reader drains the socket in bursts after each blocking
//     receive (an immediate-deadline fallback loop standing in for
//     recvmmsg-style batching, with no build tags or extra
//     dependencies).
//   - Clock drives an unmodified *sim.Scheduler against the wall
//     clock: virtual time is wall time since Run started, due timers
//     fire on the loop goroutine, and the loop sleeps exactly until
//     the scheduler's next deadline (sim.Scheduler.NextAt) or the next
//     datagram, whichever comes first.
//   - Everything protocol-visible stays single-threaded: handlers,
//     timers, and sends all run on the Clock's loop goroutine, the
//     same discipline the simulator enforces, so the endpoints need no
//     locks. Reader goroutines only move pooled buffers into the
//     loop's inbox (the pool and refcounts are concurrency-safe).
package udplink

import (
	"errors"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/buf"
	"repro/internal/sim"
)

// Config parameterizes a Clock. Zero fields take defaults.
type Config struct {
	// MTU is the largest datagram the readers accept (default 2048).
	MTU int
	// Batch bounds how many datagrams one reader wakeup drains and how
	// many queued sends one flush writes (default 32). The first read
	// of a burst blocks; the rest use an immediate deadline, so one
	// blocking syscall amortizes over up to Batch arrivals.
	Batch int
	// Inbox is the arrival channel depth shared by all links
	// (default 512). A full inbox applies backpressure to readers.
	Inbox int
	// MaxIdle caps how long the loop sleeps when the scheduler is idle
	// and no datagrams arrive (default 50 ms).
	MaxIdle time.Duration
	// Pool supplies receive buffers (default buf.Default, shared with
	// the endpoints so the recycling loop closes across the socket
	// boundary too).
	Pool *buf.Pool
}

func (c *Config) fill() {
	if c.MTU == 0 {
		c.MTU = 2048
	}
	if c.Batch == 0 {
		c.Batch = 32
	}
	if c.Inbox == 0 {
		c.Inbox = 512
	}
	if c.MaxIdle == 0 {
		c.MaxIdle = 50 * time.Millisecond
	}
	if c.Pool == nil {
		c.Pool = buf.Default
	}
}

// arrival is one received datagram in flight from a reader goroutine
// to the loop.
type arrival struct {
	link *Link
	ref  *buf.Ref
	n    int
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
		inbox: make(chan arrival, cfg.Inbox),
		stopc: make(chan struct{}),
	}
}

// Scheduler returns the wrapped scheduler.
func (c *Clock) Scheduler() *sim.Scheduler { return c.sched }

// NewLink attaches a socket. Datagrams sent via the link go to peer;
// arriving datagrams (from anyone) are handed to the link's handler on
// the loop goroutine. The reader goroutine starts immediately; the
// caller still owns closing conn (which stops the reader).
func (c *Clock) NewLink(conn net.PacketConn, peer net.Addr) *Link {
	l := &Link{clk: c, conn: conn, peer: peer}
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

// dispatch hands one datagram to its link's handler and recycles the
// buffer.
func (c *Clock) dispatch(a arrival) {
	a.link.recvd.Add(1)
	if h := a.link.handler; h != nil {
		h(a.ref.Bytes()[:a.n])
	}
	a.ref.Release()
}

// flushAll writes every link's queued sends.
func (c *Clock) flushAll() {
	for _, l := range c.links {
		l.flush()
	}
}

// Link is one direction-agnostic UDP attachment: sends go to the
// configured peer, receives come from the socket. It implements the
// same contract as netsim.Link (Send copies, SendRef consumes the
// caller's reference), so alf.Sender.SendRef and the control channels
// plug in unchanged.
type Link struct {
	clk     *Clock
	conn    net.PacketConn
	peer    net.Addr
	handler func([]byte)

	// out is the batched send queue, owned by the loop goroutine: the
	// endpoints send from timer callbacks and handlers (both on the
	// loop), and the queue flushes once per pass.
	out []*buf.Ref

	sent     atomic.Int64
	recvd    atomic.Int64
	dropped  atomic.Int64 // reader drops: oversized or inbox full
	sendErrs atomic.Int64
}

// SetHandler installs the arrival handler (runs on the loop
// goroutine). The slice is only valid during the call.
func (l *Link) SetHandler(h func([]byte)) { l.handler = h }

// Sent, Recvd, Dropped, SendErrs report link counters.
func (l *Link) Sent() int64     { return l.sent.Load() }
func (l *Link) Recvd() int64    { return l.recvd.Load() }
func (l *Link) Dropped() int64  { return l.dropped.Load() }
func (l *Link) SendErrs() int64 { return l.sendErrs.Load() }

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

// flush writes the queued datagrams. One flush per loop pass batches
// everything the endpoints emitted during that pass (a paced burst, a
// whole ADU's fragments) into back-to-back writes.
func (l *Link) flush() {
	for i, ref := range l.out {
		if _, err := l.conn.WriteTo(ref.Bytes(), l.peer); err != nil {
			l.sendErrs.Add(1)
		} else {
			l.sent.Add(1)
		}
		ref.Release()
		l.out[i] = nil
	}
	l.out = l.out[:0]
}

// Pauses between blocking reads that keep failing: a lone failure is
// retried at once, the second in a row waits readBackoffMin, each
// further one twice as long, up to readBackoffMax.
const (
	readBackoffMin = time.Millisecond
	readBackoffMax = 100 * time.Millisecond
)

// readLoop is the per-socket reader: one blocking receive, then an
// immediate-deadline drain of whatever else the socket already holds,
// up to the batch bound — the portable stand-in for recvmmsg. Exits
// when the socket closes or the clock stops. A UDP socket surfaces
// transient errors (connection-refused from ICMP) that clear on their
// own, so any other read error keeps the reader alive; consecutive
// ones back off, so an error that does not clear cannot spin the
// reader.
func (l *Link) readLoop() {
	batch := l.clk.cfg.Batch
	fails := 0 // consecutive failed blocking reads
	for {
		ref := l.clk.cfg.Pool.Get(l.clk.cfg.MTU)
		n, _, err := l.conn.ReadFrom(ref.Bytes())
		if err != nil {
			ref.Release()
			if errors.Is(err, net.ErrClosed) {
				return
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			if fails++; fails > 1 && !l.pause(fails-1) {
				return
			}
			continue
		}
		fails = 0
		if !l.deliver(ref, n) {
			return
		}
		// Burst drain: anything already queued in the socket buffer is
		// taken with a zero deadline, so a burst of k datagrams costs
		// one blocking wait, not k.
		drained := 1
		for drained < batch {
			if err := l.conn.SetReadDeadline(time.Now()); err != nil {
				break
			}
			ref := l.clk.cfg.Pool.Get(l.clk.cfg.MTU)
			n, _, err := l.conn.ReadFrom(ref.Bytes())
			if err != nil {
				ref.Release()
				if errors.Is(err, net.ErrClosed) {
					return
				}
				break // deadline: socket empty
			}
			if !l.deliver(ref, n) {
				return
			}
			drained++
		}
		if err := l.conn.SetReadDeadline(time.Time{}); err != nil {
			return
		}
	}
}

// deliver hands one received datagram to the loop. It reports false
// only when the clock has stopped (time to exit the reader).
func (l *Link) deliver(ref *buf.Ref, n int) bool {
	select {
	case l.clk.inbox <- arrival{link: l, ref: ref, n: n}:
		return true
	case <-l.clk.stopc:
		ref.Release()
		return false
	}
}

// pause is the nth pause of a run of failed reads. It reports false
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
