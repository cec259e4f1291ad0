// Package otp implements the Ordered Transport Protocol — the paper's
// TCP model and the baseline every ALF experiment compares against.
//
// OTP numbers the bytes in the stream, delivers strictly in order,
// acknowledges cumulatively, retransmits from a sender-side copy on
// timeout (and optionally on triple duplicate ACKs), and paces with a
// sliding window. These are exactly the behaviours the paper interrogates:
// the sequence numbers "have no meaning to the application" (§5), and a
// single lost segment holds up all data behind it until recovery —
// head-of-line blocking for the presentation pipeline.
//
// The implementation is an event-driven state machine on a sim.Scheduler;
// it sends each segment as a pooled buffer through any
// func(*buf.Ref) error (typically netsim.Link.SendRef) and receives via
// HandleSegment.
package otp

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/buf"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/tracing"
	"repro/internal/wire"
)

// Errors.
var (
	ErrSegmentSize = wire.ErrOTPShort
	ErrBufferFull  = errors.New("otp: send buffer full")
	ErrWrongConn   = errors.New("otp: segment for another connection")
	ErrConnDead    = errors.New("otp: connection declared dead")
)

// Config parameterizes a connection. Zero fields take defaults.
type Config struct {
	// ConnID demultiplexes connections sharing a node.
	ConnID byte
	// MSS is the maximum payload bytes per segment (default 1000).
	MSS int
	// SendWindow bounds unacknowledged bytes in flight (default 64 KiB).
	SendWindow int
	// RecvWindow bounds receiver buffering (default 64 KiB). It is
	// advertised to the sender and caps out-of-order storage.
	RecvWindow int
	// SendBuffer bounds data the application may queue ahead of the
	// window (default 1 MiB).
	SendBuffer int
	// InitialRTO is the retransmission timeout before any RTT sample
	// (default 200 ms). MinRTO/MaxRTO clamp the adaptive value
	// (defaults 50 ms / 10 s).
	InitialRTO, MinRTO, MaxRTO sim.Duration
	// AckDelay batches acknowledgements: an ACK is sent at most this
	// long after the segment that provoked it (0 = immediate). The
	// delayed-ACK path is the out-of-band control of experiment A2.
	AckDelay sim.Duration
	// FailThreshold, when non-zero, declares the connection dead after
	// that many consecutive retransmission timeouts with no forward
	// progress — a partitioned peer then fails explicitly (Dead,
	// OnDead, Send returning ErrConnDead) instead of retrying at MaxRTO
	// forever. With the RTO ceiling the worst-case time to declare is
	// roughly FailThreshold x MaxRTO. Zero never gives up (the
	// original, pre-hardening behaviour).
	FailThreshold int
	// FastRetransmit enables retransmission on three duplicate ACKs.
	FastRetransmit bool
	// Metrics, if non-nil, registers this connection's event counters
	// (views over Conn.Stats), window gauges, the segment-size
	// histogram, and the head-of-line stall-time histogram with the
	// unified registry, labeled conn=<ConnID>.
	Metrics *metrics.Registry
	// MetricsLabels are extra "k=v" labels for this connection's
	// series. Both endpoints of a connection share a ConnID, so when
	// both register into one registry, each needs a distinguishing
	// label (e.g. "role=snd" / "role=rcv") or the later registration
	// replaces the earlier one's views.
	MetricsLabels []string
	// Tracer, if non-nil, records this endpoint's per-message lifecycle
	// events (message submit, segment tx/rx, head-of-line stalls) with
	// the span recorder. Both ends of a connection may share one tracer;
	// events merge by ConnID. A nil tracer costs one branch per event.
	Tracer *tracing.Tracer
	// Pool supplies the pooled buffers outgoing segments and the
	// receiver's out-of-order store are built from. Default buf.Default,
	// shared with netsim so the recycling loop closes end to end.
	Pool *buf.Pool
}

func (c *Config) fill() {
	if c.MSS == 0 {
		c.MSS = 1000
	}
	if c.SendWindow == 0 {
		c.SendWindow = 64 << 10
	}
	if c.RecvWindow == 0 {
		c.RecvWindow = 64 << 10
	}
	if c.SendBuffer == 0 {
		c.SendBuffer = 1 << 20
	}
	if c.InitialRTO == 0 {
		c.InitialRTO = 200 * time.Millisecond
	}
	if c.MinRTO == 0 {
		c.MinRTO = 50 * time.Millisecond
	}
	if c.MaxRTO == 0 {
		c.MaxRTO = 10 * time.Second
	}
	if c.Pool == nil {
		c.Pool = buf.Default
	}
}

// Stats counts connection events.
type Stats struct {
	SegmentsSent   int64 `metric:"segments_sent"`
	BytesSent      int64 `metric:"bytes_sent"` // payload bytes, first transmissions only
	Retransmits    int64 `metric:"retransmits"`
	Timeouts       int64 `metric:"timeouts"`
	FastRetransmit int64 `metric:"fast_retransmits"`
	AcksSent       int64 `metric:"acks_sent"`

	SegmentsReceived int64 `metric:"segments_received"`
	BytesDelivered   int64 `metric:"bytes_delivered"`
	ChecksumDrops    int64 `metric:"checksum_drops"`
	Duplicates       int64 `metric:"duplicates"`
	OutOfOrder       int64 `metric:"out_of_order"` // segments buffered ahead of a gap
	WindowDrops      int64 `metric:"window_drops"` // segments beyond the receive window info
	DupAcks          int64 `metric:"dup_acks"`
	BadAcks          int64 `metric:"bad_acks"` // acknowledgements for data never sent

	Died int64 `metric:"dead,gauge"` // 1 once FailThreshold declared the connection dead
}

// Conn is one end of an OTP connection. Both directions carry data; the
// two directions are independent (ACKs are separate segments).
type Conn struct {
	cfg   Config
	sched *sim.Scheduler
	send  func(*buf.Ref) error

	// OnData receives in-order payload as it becomes deliverable. The
	// slice is valid only until the callback returns — it aliases either
	// the arriving segment or a pooled out-of-order buffer that is
	// recycled afterwards. Copy to retain.
	OnData func([]byte)
	// OnAcked, if set, fires whenever the acknowledged offset advances,
	// with the total acknowledged byte count.
	OnAcked func(total int64)
	// OnDead, if set, fires once when FailThreshold consecutive timeouts
	// without forward progress declare the connection dead.
	OnDead func()

	// Sender state (absolute stream offsets).
	sndUna   int64  // oldest unacknowledged
	sndNxt   int64  // next offset to transmit
	sndEnd   int64  // end of data written by the application
	sndBuf   []byte // bytes [sndUna, sndEnd)
	msgIndex uint64 // Send calls so far (the tracer's message identity)
	peerWnd  int    // last advertised window from peer
	dupAcks  int
	// Loss recovery (NewReno shape): while in recovery, each partial
	// ACK retransmits the next hole immediately instead of waiting out
	// another RTO.
	inRecovery bool
	recoverPt  int64 // sndNxt when recovery began

	// RTT estimation (Jacobson/Karn).
	rtt          sim.RTT
	timedSeq     int64    // segment whose RTT is being measured
	timedAt      sim.Time // when it was sent
	timingActive bool
	rtoTimer     *sim.Timer

	// Receiver state.
	rcvNxt   int64
	ooo      map[int64]*buf.Ref // out-of-order segments by offset (pooled)
	oooBytes int
	ackTimer *sim.Timer
	ackOwed  bool

	// Head-of-line stall accounting: a stall opens when the first
	// segment is buffered ahead of a gap and closes when the gap fills
	// and the buffer drains (§5's in-order delivery cost).
	stalled    bool
	stallStart sim.Time

	// Failure detection: consecutive RTO expiries since the last ACK
	// that advanced sndUna. Crossing cfg.FailThreshold kills the
	// connection permanently.
	timeoutStreak int
	dead          bool

	m connMetrics

	Stats Stats
}

// New creates a connection endpoint. send transmits each wire segment,
// data and ACK alike, toward the peer as a pooled buffer, and owns the
// passed reference even on error: it releases or forwards it, as
// netsim.Link.SendRef and netsim.SendRefVia do. A send that needs the
// bytes only for the call reads ref.Bytes() and then releases the ref.
func New(sched *sim.Scheduler, send func(*buf.Ref) error, cfg Config) *Conn {
	cfg.fill()
	c := &Conn{
		cfg:   cfg,
		sched: sched,
		send:  send,
		// Until the peer advertises, assume one segment of window — the
		// conservative start keeps a fast sender from overrunning a
		// small receiver before the first ACK returns.
		peerWnd: cfg.MSS,
		rtt:     sim.RTT{RTO: cfg.InitialRTO},
		ooo:     make(map[int64]*buf.Ref),
	}
	c.rtoTimer = sched.NewTimer(c.onTimeout)
	c.ackTimer = sched.NewTimer(c.flushAck)
	c.m = bindConnMetrics(cfg.Metrics, c)
	return c
}

// Buffered returns the bytes written but not yet acknowledged.
func (c *Conn) Buffered() int { return int(c.sndEnd - c.sndUna) }

// Acked returns the total bytes acknowledged by the peer.
func (c *Conn) Acked() int64 { return c.sndUna }

// Delivered returns the total bytes handed to OnData in order.
func (c *Conn) Delivered() int64 { return c.rcvNxt }

// Idle reports whether the sender has nothing outstanding or queued.
func (c *Conn) Idle() bool { return c.sndUna == c.sndEnd }

// Dead reports whether FailThreshold declared the connection dead. A
// dead connection stops all timers, rejects writes, and ignores
// arriving segments; the state is terminal.
func (c *Conn) Dead() bool { return c.dead }

// Send queues data for transmission. It returns ErrBufferFull when the
// send buffer cannot take the whole write (nothing is queued in that
// case).
func (c *Conn) Send(data []byte) error {
	if c.dead {
		return ErrConnDead
	}
	if c.Buffered()+len(data) > c.cfg.SendBuffer {
		return fmt.Errorf("%w: %d queued", ErrBufferFull, c.Buffered())
	}
	c.cfg.Tracer.Emit(tracing.MsgSubmit, c.cfg.ConnID, c.msgIndex, c.sndEnd, len(data), 0)
	c.msgIndex++
	c.sndBuf = append(c.sndBuf, data...)
	c.sndEnd += int64(len(data))
	c.pump()
	return nil
}

// sendWindow returns how many bytes past sndUna the sender may have in
// flight: the lesser of our configured window and the peer's advert.
func (c *Conn) sendWindow() int { return min(c.cfg.SendWindow, c.peerWnd) }

// pump transmits new segments while window and data allow.
func (c *Conn) pump() {
	for c.sndNxt < c.sndEnd {
		inFlight := int(c.sndNxt - c.sndUna)
		room := c.sendWindow() - inFlight
		if room <= 0 {
			if inFlight > 0 {
				return
			}
			// Zero-window persist: keep one byte moving so a window
			// update can never be missed forever. In-order data is
			// always accepted by the receiver, so this cannot livelock.
			room = 1
		}
		n := min(int(c.sndEnd-c.sndNxt), c.cfg.MSS, room)
		off := int(c.sndNxt - c.sndUna)
		c.transmit(c.sndNxt, c.sndBuf[off:off+n], false)
		c.sndNxt += int64(n)
	}
}

// transmit emits one DATA segment (with a piggybacked cumulative ACK).
func (c *Conn) transmit(seq int64, payload []byte, isRetx bool) {
	seg := c.makeSegment(wire.OTPData|wire.OTPAck, seq, payload)
	c.Stats.SegmentsSent++
	c.m.segBytes.Observe(int64(len(payload)))
	if isRetx {
		c.cfg.Tracer.Emit(tracing.SegRetx, c.cfg.ConnID, 0, seq, len(payload), 0)
		c.Stats.Retransmits++
	} else {
		c.cfg.Tracer.Emit(tracing.SegTX, c.cfg.ConnID, 0, seq, len(payload), 0)
		c.Stats.BytesSent += int64(len(payload))
		// Karn: only time segments never retransmitted; one at a time.
		if !c.timingActive {
			c.timingActive = true
			c.timedSeq = seq + int64(len(payload))
			c.timedAt = c.sched.Now()
		}
	}
	_ = c.send(seg) // a segment the network refuses is a loss, which the RTO recovers
	if !c.rtoTimer.Active() {
		c.rtoTimer.Reset(c.rtt.RTO)
	}
}

// makeSegment builds a wire segment with checksum in a pooled buffer.
// The caller owns the returned reference.
func (c *Conn) makeSegment(flags byte, seq int64, payload []byte) *buf.Ref {
	ref := c.cfg.Pool.Get(wire.OTPHeaderSize + len(payload))
	seg := ref.Bytes()
	copy(seg[wire.OTPHeaderSize:], payload)
	wire.PutOTP(seg, &wire.OTPHeader{
		Flags: flags, Conn: c.cfg.ConnID,
		Seq: uint32(seq), Ack: uint32(c.rcvNxt),
		Window: c.recvWindowAvail(), Len: len(payload),
	})
	return ref
}

// recvWindowAvail is the receive window we can advertise: configured
// capacity minus out-of-order bytes held.
func (c *Conn) recvWindowAvail() int { return max(c.cfg.RecvWindow-c.oooBytes, 0) }

// onTimeout handles RTO expiry: retransmit the oldest outstanding
// segment and back off.
func (c *Conn) onTimeout() {
	if c.dead || c.sndUna == c.sndNxt {
		return // dead, or nothing outstanding
	}
	c.Stats.Timeouts++
	c.timeoutStreak++
	if c.cfg.FailThreshold > 0 && c.timeoutStreak >= c.cfg.FailThreshold {
		c.markDead()
		return
	}
	c.timingActive = false // Karn: discard the sample
	c.enterRecovery()
	c.resendOldest()
	c.rtt.Backoff(c.cfg.MaxRTO)
	c.rtoTimer.Reset(c.rtt.RTO)
}

// resendOldest retransmits the oldest outstanding segment.
func (c *Conn) resendOldest() {
	c.transmit(c.sndUna, c.sndBuf[:min(int(c.sndNxt-c.sndUna), c.cfg.MSS)], true)
}

// markDead terminates the connection: all timers stop, writes return
// ErrConnDead, and arriving segments are dropped. Explicit failure —
// the alternative is retrying at MaxRTO forever across a partition.
func (c *Conn) markDead() {
	c.dead = true
	c.Stats.Died = 1
	c.rtoTimer.Stop()
	c.ackTimer.Stop()
	c.ackOwed = false
	// Data buffered ahead of a gap can never be delivered now; recycle it.
	for off, held := range c.ooo {
		delete(c.ooo, off)
		held.Release()
	}
	c.oooBytes = 0
	if c.OnDead != nil {
		c.OnDead()
	}
}

// HandleSegment processes one arriving wire segment (the node handler
// should pass packet payloads here). Segments for other connection IDs
// are reported with ErrWrongConn so a demultiplexer can try elsewhere.
func (c *Conn) HandleSegment(seg []byte) error {
	if c.dead {
		return nil
	}
	h, err := wire.ParseOTP(seg)
	if errors.Is(err, ErrSegmentSize) {
		return fmt.Errorf("%w: %d bytes", err, len(seg))
	}
	// The connection id is read before the verdict on the checksum, so
	// a damaged segment counts against the connection it names only.
	if h.Conn != c.cfg.ConnID {
		return ErrWrongConn
	}
	if err != nil {
		c.Stats.ChecksumDrops++
		return nil
	}
	c.peerWnd = h.Window

	if h.Flags&wire.OTPAck != 0 {
		c.handleAck(extend(h.Ack, c.sndUna))
	}
	if h.Flags&wire.OTPData != 0 {
		c.Stats.SegmentsReceived++
		c.handleData(extend(h.Seq, c.rcvNxt), seg[wire.OTPHeaderSize:wire.OTPHeaderSize+h.Len])
	}
	return nil
}

// extend widens a 32-bit wire sequence number to 64 bits near a
// reference offset (handles wrap for streams past 4 GiB).
func extend(w uint32, near int64) int64 {
	base := near &^ 0xFFFFFFFF
	v := base | int64(w)
	if v < near-1<<31 {
		v += 1 << 32
	} else if v > near+1<<31 {
		v -= 1 << 32
	}
	return v
}

func (c *Conn) handleAck(ack int64) {
	switch {
	case ack > c.sndNxt:
		// Acknowledgement for data never sent: a broken or forged peer.
		// RFC-style behaviour is to ignore it.
		c.Stats.BadAcks++
	case ack > c.sndUna:
		adv := int(ack - c.sndUna)
		c.sndBuf = c.sndBuf[adv:]
		c.sndUna = ack
		if c.sndNxt < c.sndUna {
			c.sndNxt = c.sndUna
		}
		c.dupAcks = 0
		c.timeoutStreak = 0 // forward progress: the peer is alive
		// RTT sample (Karn-filtered).
		if c.timingActive && ack >= c.timedSeq {
			c.rtt.Sample(c.sched.Now().Sub(c.timedAt), c.cfg.MinRTO, c.cfg.MaxRTO)
			c.timingActive = false
		} else if c.rtt.SRTT > 0 {
			// Forward progress collapses any exponential backoff back
			// to the estimator-derived timeout.
			c.rtt.Derive(c.cfg.MinRTO, c.cfg.MaxRTO)
		}
		if c.inRecovery {
			if ack >= c.recoverPt {
				c.inRecovery = false
			} else {
				// Partial ACK: the next hole starts at the new sndUna;
				// retransmit it now rather than after another timeout.
				c.resendOldest()
			}
		}
		if c.sndUna == c.sndNxt {
			c.rtoTimer.Stop()
		} else {
			c.rtoTimer.Reset(c.rtt.RTO)
		}
		if c.OnAcked != nil {
			c.OnAcked(c.sndUna)
		}
		c.pump()
	case ack == c.sndUna && c.sndNxt > c.sndUna:
		c.Stats.DupAcks++
		c.dupAcks++
		if c.cfg.FastRetransmit && c.dupAcks == 3 {
			c.Stats.FastRetransmit++
			c.enterRecovery()
			c.resendOldest()
		}
	}
}

// enterRecovery records the stream point that ends loss recovery.
func (c *Conn) enterRecovery() {
	c.inRecovery = true
	c.recoverPt = max(c.recoverPt, c.sndNxt)
}

func (c *Conn) handleData(seq int64, payload []byte) {
	end := seq + int64(len(payload))
	switch {
	case end <= c.rcvNxt:
		// Entirely old: a duplicate. Re-ack so the sender advances.
		c.Stats.Duplicates++
		c.scheduleAck()
		return
	case seq > c.rcvNxt:
		// Ahead of a gap: buffer within window.
		if _, dup := c.ooo[seq]; dup {
			c.Stats.Duplicates++
			c.scheduleAck()
			return
		}
		// Both bounds: segments that overlap one another each fit the
		// window, yet together they could hold many times it. The distance
		// stays 64-bit: where int has 32, one of 2^31 or more would wrap
		// negative and pass.
		if seq-c.rcvNxt+int64(len(payload)) > int64(c.cfg.RecvWindow) || c.oooBytes+len(payload) > c.cfg.RecvWindow {
			c.Stats.WindowDrops++
			return
		}
		c.Stats.OutOfOrder++
		if !c.stalled {
			// First data held back by a gap: head-of-line stall opens.
			c.stalled = true
			c.stallStart = c.sched.Now()
			c.cfg.Tracer.Emit(tracing.StallOpen, c.cfg.ConnID, 0, c.rcvNxt, 0, 0)
		}
		c.cfg.Tracer.Emit(tracing.SegOOO, c.cfg.ConnID, 0, seq, len(payload), 0)
		held := c.cfg.Pool.Get(len(payload))
		copy(held.Bytes(), payload)
		c.ooo[seq] = held
		c.oooBytes += len(payload)
		c.scheduleAck()
		return
	}
	// Overlaps rcvNxt: deliver the new part.
	fresh := payload[c.rcvNxt-seq:]
	c.deliver(fresh)
	// Drain out-of-order segments that are now contiguous. A
	// retransmission may span different boundaries than the original
	// segments, so entries can overlap rcvNxt partially or be wholly
	// stale; handle all three cases.
	for progressed := true; progressed; {
		progressed = false
		for off, held := range c.ooo {
			if off > c.rcvNxt {
				continue
			}
			delete(c.ooo, off)
			p := held.Bytes()
			c.oooBytes -= len(p)
			if end := off + int64(len(p)); end > c.rcvNxt {
				c.deliver(p[c.rcvNxt-off:])
			}
			held.Release()
			progressed = true
		}
	}
	if c.stalled && len(c.ooo) == 0 {
		// The gap closed and everything behind it flushed: the
		// head-of-line stall ends.
		c.stalled = false
		c.m.holStall.ObserveDuration(c.sched.Now().Sub(c.stallStart))
		c.cfg.Tracer.Emit(tracing.StallClose, c.cfg.ConnID, 0, 0, 0, c.sched.Now().Sub(c.stallStart))
	}
	c.scheduleAck()
}

func (c *Conn) deliver(p []byte) {
	c.cfg.Tracer.Emit(tracing.SegDeliver, c.cfg.ConnID, 0, c.rcvNxt, len(p), 0)
	c.rcvNxt += int64(len(p))
	c.Stats.BytesDelivered += int64(len(p))
	if c.OnData != nil {
		c.OnData(p)
	}
}

// scheduleAck sends an ACK now or arms the delayed-ACK timer.
func (c *Conn) scheduleAck() {
	if c.cfg.AckDelay == 0 {
		c.flushAck()
		return
	}
	c.ackOwed = true
	if !c.ackTimer.Active() {
		c.ackTimer.Reset(c.cfg.AckDelay)
	}
}

func (c *Conn) flushAck() {
	c.ackOwed = false
	c.ackTimer.Stop()
	c.Stats.AcksSent++
	_ = c.send(c.makeSegment(wire.OTPAck, 0, nil)) // a lost ACK is repaired by the next one
}
