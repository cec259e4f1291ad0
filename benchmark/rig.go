package main

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"slices"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/buf"
	alf "repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/udplink"
	"repro/internal/xcode"
)

const (
	// warmADUs are delivered before the measured window opens, so pools
	// are filled, maps are grown and the closed loop is in steady state.
	// Their cost is part of setup_s.
	warmADUs = 2000
	// stallTimeout aborts a repetition in which nothing is delivered.
	stallTimeout = 5 * time.Second
	// drainTimeout bounds the wait for the last window of ADUs and for
	// the endpoints to release all state after submission stops.
	drainTimeout = 5 * time.Second
	// maxLatencySamples bounds the per-repetition latency record (8 B
	// each). Samples beyond it are not recorded; the count is reported.
	maxLatencySamples = 1 << 20
)

type phase uint8

const (
	phaseWarm phase = iota
	phaseMeasure
	phaseDrain
)

// snapshot is everything the harness reads at an edge of the measured
// window. Metrics are differences of two snapshots.
type snapshot struct {
	at    int64 // ns since the rig's epoch
	cpu   time.Duration
	mem   runtime.MemStats
	snd   alf.SenderStats
	rcv   alf.ReceiverStats
	pool  buf.Stats
	fired uint64
	good  int64 // ledger-verified deliveries
	link  linkCounts
}

// linkCounts are the udplink-side counters: the public Link and
// LossyConn counters, and (traced pass only) the conn wrapper's.
type linkCounts struct {
	sent, recvd, dropped, sendErrs int64
	lossyDropped                   int64
	writes, reads                  int64
	readTimeouts, deadlineSets     int64
}

// cpuTime is the process's user+system time so far, all threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// tracedConn is the net.PacketConn wrapper of the traced pass. Writes
// happen on the loop goroutine (Link.flush) and get a span; reads
// happen on udplink's reader goroutines and are only counted.
type tracedConn struct {
	net.PacketConn
	tr                         *tracer
	writes, reads              atomic.Int64
	readTimeouts, deadlineSets atomic.Int64
}

func (c *tracedConn) WriteTo(p []byte, addr net.Addr) (int, error) {
	c.tr.begin(spUDPWrite, 0)
	n, err := c.PacketConn.WriteTo(p, addr)
	c.tr.end()
	c.writes.Add(1)
	return n, err
}

func (c *tracedConn) ReadFrom(p []byte) (int, net.Addr, error) {
	n, addr, err := c.PacketConn.ReadFrom(p)
	c.reads.Add(1)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		c.readTimeouts.Add(1)
	}
	return n, addr, err
}

func (c *tracedConn) SetReadDeadline(t time.Time) error {
	c.deadlineSets.Add(1)
	return c.PacketConn.SetReadDeadline(t)
}

// rig is one repetition of a transport workload: a Sender and a
// Receiver joined by a netsim route or by two loopback sockets, driven
// as a closed loop and checked by the ledger.
type rig struct {
	sp    *spec
	tr    *tracer
	epoch time.Time
	dur   time.Duration

	sched *sim.Scheduler
	pool  *buf.Pool
	snd   *alf.Sender
	rcv   *alf.Receiver
	led   *ledger
	lat   []int64

	// UDP workloads only.
	links  []*udplink.Link
	socks  []net.PacketConn
	traced []*tracedConn
	lossy  *udplink.LossyConn

	marks    []mark // the slices of the measured window: see best.go
	nextMark int64  // the delivery count that ends the current slice

	phase        phase
	deadline     int64
	drainStart   int64
	lastProgress int64
	start, end   snapshot
	setup        time.Duration
	aborted      string
}

func (r *rig) now() int64 { return int64(time.Since(r.epoch)) }

// endpointConfig is the stream configuration both ends share.
func (r *rig) endpointConfig(seed uint64) alf.Config {
	cfg := alf.Config{Suite: r.sp.suite, Pool: r.pool}
	if r.sp.suite != alf.SuiteNone {
		cfg.Key = 0xDEFACED0 + seed
	}
	if r.sp.kind == kindSim {
		cfg.Policy = alf.NoRetransmit
	} else {
		cfg.Policy = alf.SenderBuffered
		cfg.NackDelay = 10 * time.Millisecond
		cfg.NackInterval = 10 * time.Millisecond
	}
	return cfg
}

// connect builds the endpoints over enqueue-style send functions and
// wires the ledger to the receiver's callbacks.
func (r *rig) connect(seed uint64, data func([]byte) error, dataRef func(*buf.Ref) error, ctrl func([]byte) error) error {
	cfg := r.endpointConfig(seed)
	enqueue := func(send func([]byte) error) func([]byte) error {
		if send == nil {
			return nil
		}
		return func(p []byte) error {
			r.tr.begin(spLinkEnqueue, 0)
			err := send(p)
			r.tr.end()
			return err
		}
	}
	var err error
	if r.snd, err = alf.NewSender(r.sched, enqueue(data), cfg); err != nil {
		return err
	}
	r.snd.SendRef = func(ref *buf.Ref) error {
		r.tr.begin(spLinkEnqueue, 0)
		err := dataRef(ref)
		r.tr.end()
		return err
	}
	if r.rcv, err = alf.NewReceiver(r.sched, enqueue(ctrl), cfg); err != nil {
		return err
	}
	r.rcv.OnADU = r.onADU
	r.rcv.OnLost = func(name uint64) {
		// Names are assigned in submission order from 0, as tags are.
		r.led.lose(name)
	}
	return nil
}

func (r *rig) handlePacket(p []byte) {
	r.tr.begin(spCoreRecv, 0)
	_ = r.rcv.HandlePacket(p) // rejected packets show in ReceiverStats and, if it matters, in the ledger
	r.tr.end()
}

func (r *rig) handleControl(p []byte) {
	r.tr.begin(spCoreControl, 0)
	_ = r.snd.HandleControl(p) // likewise SenderStats.CtrlDropped
	r.tr.end()
}

// submit sends the next ADU. A refusal aborts the repetition: the
// workloads are chosen so that no Send fails.
func (r *rig) submit(now int64) {
	r.tr.begin(spAppSubmit, uint64(len(r.led.state)))
	tag, data := r.led.submit(now)
	r.tr.begin(spCoreSend, tag)
	_, err := r.snd.Send(tag, xcode.SyntaxRaw, data)
	r.tr.end()
	if err != nil {
		r.led.unsubmit()
		r.aborted = "sender refused an ADU: " + err.Error()
	}
	r.tr.end()
}

// fill tops the closed loop's window up.
func (r *rig) fill(now int64) {
	for r.phase != phaseDrain && r.aborted == "" && r.led.outstanding() < int64(r.sp.window) {
		r.submit(now)
	}
}

// onADU is the receiving application: verify, release, move the
// measured window along and, over UDP, submit the ADU's successor.
func (r *rig) onADU(a alf.ADU) {
	r.tr.begin(spAppDeliver, a.Tag)
	now := r.now()
	lat := r.led.deliver(a.Tag, a.Data, now)
	a.Release()
	r.lastProgress = now
	switch r.phase {
	case phaseWarm:
		if r.led.delivered >= warmADUs {
			r.openWindow()
		}
	case phaseMeasure:
		if lat >= 0 && len(r.lat) < cap(r.lat) {
			r.lat = append(r.lat, lat)
		}
		if now >= r.deadline {
			r.closeWindow(now)
		} else if r.led.delivered >= r.nextMark && r.sp.sliced() {
			r.marks = append(r.marks, mark{at: now, good: r.led.delivered, lat: len(r.lat)})
			r.nextMark += sliceADUs
		}
	}
	if r.sp.kind == kindUDP {
		r.fill(now)
	}
	r.tr.end()
}

// openWindow starts the measurement. The slow reads come first and the
// clock last, so none of their cost falls inside the window.
func (r *rig) openWindow() {
	r.start = r.snap()
	r.start.at = r.now()
	r.setup = time.Duration(r.start.at)
	r.deadline = r.start.at + int64(r.dur)
	r.phase = phaseMeasure
	r.marks = append(r.marks[:0], mark{at: r.start.at, good: r.start.good})
	r.nextMark = r.start.good + sliceADUs
	r.tr.start(r.start.at)
}

// closeWindow ends the measurement at now, before the slow reads.
func (r *rig) closeWindow(now int64) {
	r.tr.stop(now)
	r.end = r.snap()
	r.end.at = now
	r.marks = append(r.marks, mark{at: now, good: r.end.good, lat: len(r.lat)})
	r.phase = phaseDrain
	r.drainStart = now
}

func (r *rig) snap() snapshot {
	var s snapshot
	runtime.ReadMemStats(&s.mem) // stops the world: first, so its cost stays outside an opening window
	s.snd = r.snd.Stats
	s.rcv = r.rcv.Stats
	s.pool = r.pool.Stats()
	s.fired = r.sched.Fired()
	s.good = r.led.delivered
	s.cpu = cpuTime()
	for _, l := range r.links {
		s.link.sent += l.Sent()
		s.link.recvd += l.Recvd()
		s.link.dropped += l.Dropped()
		s.link.sendErrs += l.SendErrs()
	}
	if r.lossy != nil {
		s.link.lossyDropped = r.lossy.Dropped()
	}
	for _, c := range r.traced {
		s.link.writes += c.writes.Load()
		s.link.reads += c.reads.Load()
		s.link.readTimeouts += c.readTimeouts.Load()
		s.link.deadlineSets += c.deadlineSets.Load()
	}
	return s
}

// clean reports whether both endpoints have let go of everything.
func (r *rig) clean() bool {
	return r.led.outstanding() == 0 && r.rcv.Pending() == 0 && r.rcv.Missing() == 0 && r.snd.BufferedADUs() == 0
}

// runSim drives the in-process route: submit one ADU, then drain every
// event due now. Virtual time never advances, so no timer fires.
func (r *rig) runSim(seed uint64) error {
	r.sched = sim.NewScheduler()
	n := netsim.New(r.sched, int64(seed))
	n.SetPool(r.pool)
	src, rtr, dst := n.NewNode("src"), n.NewRouter("rtr"), n.NewNode("dst")
	first, _ := n.NewDuplex(src, rtr.Node, netsim.LinkConfig{})
	exit, _ := n.NewDuplex(rtr.Node, dst, netsim.LinkConfig{})
	rtr.AddRoute(dst, exit)
	err := r.connect(seed,
		func(p []byte) error { return netsim.SendVia(first, dst, p) },
		func(ref *buf.Ref) error { return netsim.SendRefVia(first, dst, ref) },
		nil)
	if err != nil {
		return err
	}
	dst.SetHandler(func(p *netsim.Packet) { r.handlePacket(p.Payload) })

	for r.phase != phaseDrain && r.aborted == "" {
		now := r.now()
		if now-r.lastProgress > int64(stallTimeout) {
			r.aborted = "no delivery for " + stallTimeout.String()
			break
		}
		r.submit(now)
		r.tr.begin(spLoopRun, 0)
		_ = r.sched.RunUntil(r.sched.Now()) // only ErrStopped, and nothing calls Stop
		r.tr.end()
	}
	return nil
}

// runUDP drives two loopback sockets from one Clock loop. The sender's
// socket carries data out and control in; the receiver's the reverse.
func (r *rig) runUDP(seed uint64) error {
	for i := 0; i < 2; i++ {
		c, err := net.ListenPacket("udp4", "127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("loopback socket: %w", err)
		}
		defer c.Close()
		r.socks = append(r.socks, c)
	}
	sndConn, rcvConn := r.socks[0], r.socks[1]
	if r.sp.loss > 0 {
		r.lossy = udplink.NewLossyConn(sndConn, r.sp.loss, seed)
		sndConn = r.lossy
	}
	if r.tr != nil {
		a, b := &tracedConn{PacketConn: sndConn, tr: r.tr}, &tracedConn{PacketConn: rcvConn, tr: r.tr}
		r.traced = []*tracedConn{a, b}
		sndConn, rcvConn = a, b
	}
	r.sched = sim.NewScheduler()
	clk := udplink.NewClock(r.sched, udplink.Config{Pool: r.pool})
	defer clk.Stop()
	dataLink := clk.NewLink(sndConn, r.socks[1].LocalAddr())
	ctrlLink := clk.NewLink(rcvConn, r.socks[0].LocalAddr())
	r.links = []*udplink.Link{dataLink, ctrlLink}
	if err := r.connect(seed, dataLink.Send, dataLink.SendRef, ctrlLink.Send); err != nil {
		return err
	}
	ctrlLink.SetHandler(r.handlePacket)
	dataLink.SetHandler(r.handleControl)

	r.fill(r.now())
	r.tr.begin(spLoopRun, 0)
	clk.Run(func() bool {
		now := r.now()
		switch {
		case r.aborted != "":
			return true
		case r.phase == phaseDrain:
			return r.clean() || now-r.drainStart > int64(drainTimeout)
		case now-r.lastProgress > int64(stallTimeout):
			r.aborted = "no delivery for " + stallTimeout.String()
			return true
		}
		return false
	})
	r.tr.end()
	return nil
}

// records are the big per-repetition arrays, allocated once per workload
// and reused, so that no repetition pays for them inside its window.
type records struct {
	led   *ledger
	lat   []int64
	marks []mark
}

func newRecords(seed uint64, sp *spec) *records {
	return &records{
		led:   newLedger(seed, sp.aduBytes, 1<<20),
		lat:   make([]int64, 0, maxLatencySamples),
		marks: make([]mark, 0, maxLatencySamples/sliceADUs+2),
	}
}

// runTransport runs one repetition of a sim or UDP workload: build,
// warm up, measure for dur, drain, check. A traced repetition records
// spans; its rep carries the tracer.
func runTransport(sp *spec, seed uint64, dur time.Duration, rec *records, traced bool) (rep, error) {
	rec.led.reset()
	runtime.GC() // every repetition starts from a collected heap
	r := &rig{sp: sp, dur: dur, led: rec.led, lat: rec.lat[:0], marks: rec.marks[:0], pool: buf.NewPool(), epoch: time.Now()}
	if traced {
		r.tr = newTracer(r.epoch)
	}
	var err error
	if sp.kind == kindSim {
		err = r.runSim(seed)
	} else {
		err = r.runUDP(seed)
	}
	if err != nil {
		return rep{}, err
	}
	return r.result(), nil
}

// result turns the two snapshots and the ledger into a rep.
func (r *rig) result() rep {
	out := rep{
		setupS:    r.setup.Seconds(),
		aduBytes:  r.sp.aduBytes,
		submitted: r.led.submitted,
		failed:    r.led.failed(),
		ledger:    r.led.String(),
		aborted:   r.aborted,
		// Whole-repetition counts, warm-up and drain included: a resend
		// anywhere disqualifies a lossless run.
		resentADUs: r.snd.Stats.ResentADUs,
		authFails:  r.rcv.Stats.AuthFails,
	}
	if r.phase != phaseDrain {
		if out.aborted == "" {
			out.aborted = "measured window never closed"
		}
		return out
	}
	if !r.clean() {
		out.undrained = fmt.Sprintf("pending %d missing %d buffered %d",
			r.rcv.Pending(), r.rcv.Missing(), r.snd.BufferedADUs())
		if out.failed == 0 {
			out.failed = 1 // every ADU arrived, but an endpoint still holds state: not a clean run
		}
	}
	out.start, out.end = r.start, r.end
	out.wallS = float64(r.end.at-r.start.at) / 1e9
	out.adus = r.end.good - r.start.good
	out.best = bestSlices(r.marks, r.lat) // before the whole window is sorted

	slices.Sort(r.lat)
	out.latSamples = len(r.lat)
	us := func(p float64) float64 { return float64(percentileSorted(r.lat, p)) / 1e3 }
	out.latP50, out.latP90, out.latP99, out.latMax = us(50), us(90), us(99), us(100)
	out.tr = r.tr
	return out
}
