package udplink

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"net"
	"reflect"
	"testing"
	"time"

	"repro/internal/buf"
	"repro/internal/sim"
)

// plainConn hides the *net.UDPConn (or *LossyConn) inside it, as the
// benchmark's tracing wrapper does, so NewLink takes the portable path.
type plainConn struct{ net.PacketConn }

// sockPath is one way of handing a socket to NewLink.
type sockPath struct {
	name string
	wrap func(net.PacketConn) net.PacketConn
}

// bothPaths are the two sockIO implementations: a bare socket takes
// the batch path where there is one, a wrapped socket never does.
var bothPaths = []sockPath{
	{"bare", func(c net.PacketConn) net.PacketConn { return c }},
	{"wrapped", func(c net.PacketConn) net.PacketConn { return plainConn{c} }},
}

// morePaths are the further ways a platform's batch path can run, for
// the tests that compare paths; a platform file adds them.
var morePaths []sockPath

// batched reports whether NewLink gave l the batch path.
func batched(l *Link) bool {
	_, portable := l.io.(*connIO)
	return !portable
}

func listen(t testing.TB) net.PacketConn {
	t.Helper()
	c, err := net.ListenPacket("udp4", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// runUntil runs the clock until cond holds, failing the test if it
// does not within a generous wall-clock bound.
func runUntil(t testing.TB, clk *Clock, what string, cond func() bool) {
	t.Helper()
	start := time.Now()
	clk.Run(func() bool {
		if time.Since(start) > 20*time.Second {
			t.Fatalf("timed out waiting for %s", what)
		}
		return cond()
	})
}

// TestWrappedConnTakesPortablePath pins the choice NewLink makes: the
// batch path needs to see the UDP socket itself, or a LossyConn
// directly around it; one more wrapper and the link must not reach
// past it.
func TestWrappedConnTakesPortablePath(t *testing.T) {
	clk := NewClock(sim.NewScheduler(), Config{Pool: buf.NewPool()})
	defer clk.Stop()
	peer := listen(t).LocalAddr()
	bare := clk.NewLink(listen(t), peer)
	lossy := clk.NewLink(NewLossyConn(listen(t), 0.1, 1), peer)
	if batched(bare) != batched(lossy) {
		t.Errorf("bare socket batched=%v but LossyConn around one batched=%v", batched(bare), batched(lossy))
	}
	for name, conn := range map[string]net.PacketConn{
		"wrapper":                plainConn{listen(t)},
		"wrapper around a lossy": plainConn{NewLossyConn(listen(t), 0.1, 1)},
	} {
		if batched(clk.NewLink(conn, peer)) {
			t.Errorf("%s took the batch path", name)
		}
	}
}

// TestBatchCallCounts: the batch path moves a burst in a few system
// calls. 64 datagrams already in the socket when the reader starts are
// taken in order by two recvmmsg calls of 32 (a third may have found
// the socket empty by the time the last one is dispatched), and 64
// queued SendRefs leave in two sendmmsg calls.
func TestBatchCallCounts(t *testing.T) {
	const burst = 64
	pool := buf.NewPool()
	clk := NewClock(sim.NewScheduler(), Config{Pool: pool})
	defer clk.Stop()
	ca, cb := listen(t), listen(t)
	for i := 0; i < burst; i++ {
		if _, err := ca.WriteTo([]byte{byte(i)}, cb.LocalAddr()); err != nil {
			t.Fatal(err)
		}
	}
	la := clk.NewLink(ca, cb.LocalAddr())
	lb := clk.NewLink(cb, ca.LocalAddr())
	if !batched(la) {
		t.Skip("no batch path on this platform")
	}
	got, rxCalls := 0, int64(0)
	lb.SetHandler(func(p []byte) {
		if len(p) != 1 || int(p[0]) != got%burst {
			t.Errorf("datagram %d carries %v", got, p)
		}
		if got++; got == burst {
			rxCalls = lb.RxCalls()
			for i := 0; i < burst; i++ {
				ref := pool.Get(1)
				ref.Bytes()[0] = byte(i)
				_ = la.SendRef(ref)
			}
		}
	})
	runUntil(t, clk, "the waiting burst and the queued one", func() bool { return got == 2*burst })
	if rxCalls > 3 {
		t.Errorf("%d recvmmsg calls for %d waiting datagrams, want at most 3", rxCalls, burst)
	}
	if calls := la.TxCalls(); calls > 2 {
		t.Errorf("%d sendmmsg calls for %d queued datagrams, want at most 2", calls, burst)
	}
	if la.Sent() != burst || lb.Recvd() != 2*burst {
		t.Errorf("sent %d, received %d, want %d and %d", la.Sent(), lb.Recvd(), burst, 2*burst)
	}
}

// TestTrainCallCounts: 64 queued datagrams of one length are one train.
// They leave in one sendmmsg call as one message, arrive as one message
// in at most two recvmmsg calls (the second finds the socket empty),
// and reach the handler as 64 datagrams, byte for byte and in order. A
// handler that appends to its slice gets a copy: the next datagram in
// the buffer is not written over.
func TestTrainCallCounts(t *testing.T) {
	const burst, size = 64, 256
	pool := buf.NewPool()
	sched := sim.NewScheduler()
	clk := NewClock(sched, Config{Pool: pool})
	defer clk.Stop()
	la, lb, closeConns := echoPair(t, clk)
	defer closeConns()
	if !batched(la) {
		t.Skip("no batch path on this platform")
	}
	payload := func(i int) []byte {
		p := make([]byte, size)
		for j := range p {
			p[j] = byte(i*31 + j)
		}
		return p
	}
	got := 0
	lb.SetHandler(func(p []byte) {
		if !bytes.Equal(p, payload(got)) {
			t.Errorf("datagram %d arrived as % x...", got, p[:8])
		}
		got++
		p = append(p, bytes.Repeat([]byte{0xEE}, size)...)
		_ = p
	})
	rxBefore, queued := int64(0), false
	sched.Every(100*time.Microsecond, func() bool {
		// Once b's reader has found the socket empty and parked.
		if queued = lb.RxCalls() > 0; queued {
			rxBefore = lb.RxCalls()
			for i := 0; i < burst; i++ {
				ref := pool.Get(size)
				copy(ref.Bytes(), payload(i))
				_ = la.SendRef(ref)
			}
		}
		return !queued
	})
	runUntil(t, clk, "the train", func() bool { return got == burst })
	if la.TxCalls() != 1 || la.TxMsgs() != 1 || la.Sent() != burst {
		t.Errorf("%d datagrams sent in %d messages and %d sendmmsg calls, want %d in 1 and 1", la.Sent(), la.TxMsgs(), la.TxCalls(), burst)
	}
	if calls := lb.RxCalls() - rxBefore; calls > 2 || lb.RxMsgs() != 1 || lb.Recvd() != burst {
		t.Errorf("%d datagrams received in %d messages and %d recvmmsg calls, want %d in 1 and at most 2", lb.Recvd(), lb.RxMsgs(), calls, burst)
	}
}

// exchangeResult is what one seeded exchange left behind.
type exchangeResult struct {
	AtA, AtB map[uint64]int // payload hash -> times delivered
	Counters [8]int64       // Sent, Recvd, Dropped, SendErrs of a, then of b
}

// exchange pushes n seeded datagrams from a to b, 32 in flight; b
// echoes each and a answers an echo with the next datagram. About one
// datagram in four is a full 1400 bytes, as a fragmenting sender's are,
// so the queues hold runs a train can carry. It also returns how many
// messages a wrote.
func exchange(t *testing.T, path sockPath, n int, seed int64) (exchangeResult, int64) {
	pool := buf.NewPool()
	sched := sim.NewScheduler()
	clk := NewClock(sched, Config{Pool: pool})
	defer clk.Stop()
	ca, cb := listen(t), listen(t)
	la := clk.NewLink(path.wrap(ca), cb.LocalAddr())
	lb := clk.NewLink(path.wrap(cb), ca.LocalAddr())

	rng := rand.New(rand.NewSource(seed))
	sent := 0
	next := func() {
		if sent == n {
			return
		}
		ref := pool.Get(min(1+rng.Intn(1850), 1400))
		rng.Read(ref.Bytes())
		_ = la.SendRef(ref)
		sent++
	}
	res := exchangeResult{AtA: map[uint64]int{}, AtB: map[uint64]int{}}
	note := func(m map[uint64]int, p []byte) {
		h := fnv.New64a()
		h.Write(p)
		m[h.Sum64()]++
	}
	echoed := 0
	lb.SetHandler(func(p []byte) { note(res.AtB, p); _ = lb.Send(p) })
	la.SetHandler(func(p []byte) { note(res.AtA, p); echoed++; next() })
	sched.After(0, func() {
		for i := 0; i < 32; i++ {
			next()
		}
	})
	runUntil(t, clk, "the exchange", func() bool { return echoed == n })
	for i, l := range []*Link{la, lb} {
		copy(res.Counters[4*i:], []int64{l.Sent(), l.Recvd(), l.Dropped(), l.SendErrs()})
	}
	return res, la.TxMsgs()
}

// TestPathEquivalence: the same seeded exchange over every path (the
// portable one, the batch path writing trains, the batch path held to
// trains of one) delivers the same datagrams the same number of times
// and leaves the same counters.
func TestPathEquivalence(t *testing.T) {
	const n = 10000
	wrapped, _ := exchange(t, bothPaths[1], n, 42)
	if want := [8]int64{n, n, 0, 0, n, n, 0, 0}; wrapped.Counters != want {
		t.Errorf("counters %v, want %v", wrapped.Counters, want)
	}
	if !reflect.DeepEqual(wrapped.AtA, wrapped.AtB) {
		t.Error("the echoes a received are not the datagrams b received")
	}
	for _, path := range append(bothPaths[:1:1], morePaths...) {
		got, msgs := exchange(t, path, n, 42)
		if !reflect.DeepEqual(got, wrapped) {
			t.Errorf("paths differ: %s socket counters %v, wrapped %v; %d and %d distinct payloads at b",
				path.name, got.Counters, wrapped.Counters, len(got.AtB), len(wrapped.AtB))
		}
		t.Logf("%s socket: %d datagrams in %d messages", path.name, n, msgs)
	}
}

// TestLinkDropsForeignAndOversized: a datagram from a socket that is
// not the peer, and one longer than MTU (which the kernel would hand
// over clipped), must not reach the handler; both are counted, and the
// stream around them arrives whole and in order.
func TestLinkDropsForeignAndOversized(t *testing.T) {
	for _, path := range bothPaths {
		t.Run(path.name, func(t *testing.T) {
			const mtu, stream, spray = maxDatagram, 20, 3
			sched := sim.NewScheduler()
			clk := NewClock(sched, Config{Pool: buf.NewPool()})
			defer clk.Stop()
			ca, cb, stranger := listen(t), listen(t), listen(t)
			la := clk.NewLink(path.wrap(ca), cb.LocalAddr())
			lb := clk.NewLink(path.wrap(cb), ca.LocalAddr())

			got := 0
			lb.SetHandler(func(p []byte) {
				if len(p) != mtu || int(p[0]) != got {
					t.Errorf("datagram %d: %d bytes starting %d", got, len(p), p[0])
				}
				got++
			})
			sent := 0
			sched.Every(200*time.Microsecond, func() bool {
				if sent == stream/2 {
					// Straight onto the sockets, so they land between two
					// flushes of the stream.
					for i := 0; i < spray; i++ {
						_, _ = stranger.WriteTo(make([]byte, mtu), cb.LocalAddr())
					}
					_, _ = ca.WriteTo(make([]byte, mtu+100), cb.LocalAddr())
				}
				p := make([]byte, mtu) // a full-size datagram is not an oversized one
				p[0] = byte(sent)
				_ = la.Send(p)
				sent++
				return sent < stream
			})
			runUntil(t, clk, "the stream and the drops", func() bool { return got == stream && lb.Dropped() == spray+1 })
			if lb.Recvd() != stream || la.Dropped() != 0 {
				t.Errorf("b received %d, a dropped %d; want %d and 0", lb.Recvd(), la.Dropped(), stream)
			}
		})
	}
}

// TestLinkDropsTrains: the refusals hold for a train as for a datagram,
// and count its datagrams. A train from a socket that is not the peer
// and a train of datagrams longer than MTU must not reach the handler;
// the trains around them arrive whole and in order.
func TestLinkDropsTrains(t *testing.T) {
	const mtu, train = maxDatagram, 5
	pool := buf.NewPool()
	sched := sim.NewScheduler()
	clk := NewClock(sched, Config{Pool: pool})
	defer clk.Stop()
	ca, cb, cs := listen(t), listen(t), listen(t)
	la := clk.NewLink(ca, cb.LocalAddr())
	lb := clk.NewLink(cb, ca.LocalAddr())
	stranger := clk.NewLink(cs, cb.LocalAddr())
	if !batched(la) {
		t.Skip("no batch path on this platform")
	}
	queue := func(l *Link, size int, first byte) {
		for i := 0; i < train; i++ {
			ref := pool.Get(size)
			ref.Bytes()[0] = first + byte(i)
			_ = l.SendRef(ref)
		}
	}
	got := 0
	lb.SetHandler(func(p []byte) {
		if len(p) != mtu || int(p[0]) != got {
			t.Errorf("datagram %d: %d bytes starting %d", got, len(p), p[0])
		}
		got++
	})
	// One train per flush, each once the last has landed: a short
	// datagram queued behind the over-long ones would close their train
	// and be refused with it.
	step := 0
	sched.Every(200*time.Microsecond, func() bool {
		switch {
		case step == 0:
			queue(la, mtu, 0) // a full-size datagram is not an oversized one
		case step == 1 && got == train:
			queue(stranger, mtu, 100)
		case step == 2 && lb.Dropped() == train:
			queue(la, mtu+1, 100)
		case step == 3 && lb.Dropped() == 2*train:
			queue(la, mtu, train)
		default:
			return true
		}
		step++
		return step < 4
	})
	runUntil(t, clk, "the trains and the drops", func() bool { return got == 2*train && lb.Dropped() == 2*train })
	if lb.Recvd() != 2*train || lb.RxMsgs() != 4 || stranger.TxMsgs() != 1 {
		t.Errorf("b received %d datagrams in %d messages, the stranger wrote %d; want %d, 4 and 1", lb.Recvd(), lb.RxMsgs(), stranger.TxMsgs(), 2*train)
	}
}

// TestReceiveRingRecycles drives the one flow of buffers between
// goroutines, the receive ring (the reader reads into a buffer, the
// loop dispatches it and puts it back), around many times on each
// path, under -race in `make race`: every datagram arrives intact, and
// the pool hands out nothing for receiving beyond the rings NewLink
// filled.
func TestReceiveRingRecycles(t *testing.T) {
	for _, path := range bothPaths {
		t.Run(path.name, func(t *testing.T) {
			const rounds, perRound = 10, 100
			pool := buf.NewPool()
			sched := sim.NewScheduler()
			clk := NewClock(sched, Config{Pool: pool})
			defer clk.Stop()
			ca, cb := listen(t), listen(t)
			la := clk.NewLink(path.wrap(ca), cb.LocalAddr())
			lb := clk.NewLink(path.wrap(cb), ca.LocalAddr())
			got := 0
			lb.SetHandler(func(p []byte) {
				if len(p) != 64+got%3 || !bytes.Equal(p, bytes.Repeat([]byte{byte(got)}, len(p))) {
					t.Errorf("datagram %d: %d bytes %x", got, len(p), p[:min(len(p), 8)])
				}
				got++
			})
			for r := 0; r < rounds; r++ {
				sched.After(0, func() {
					for i := r * perRound; i < (r+1)*perRound; i++ {
						ref := pool.Get(64 + i%3)
						copy(ref.Bytes(), bytes.Repeat([]byte{byte(i)}, ref.Len()))
						_ = la.SendRef(ref)
					}
				})
				runUntil(t, clk, "a round", func() bool { return got == (r+1)*perRound })
			}
			if gets := pool.Stats().Gets; gets != 2*ringDepth+rounds*perRound {
				t.Errorf("the pool handed out %d buffers, want %d for the rings and %d for the sends", gets, 2*ringDepth, rounds*perRound)
			}
		})
	}
}

// TestReaderExitReleasesBuffers: once the sockets are closed and the
// readers have exited, the loop gives every buffer of their rings back
// to the pool, wherever a reader left it (posted for the next receive,
// or taken and not yet delivered): the pool has had as many buffers
// returned as it handed out. The pool is read on the loop goroutine,
// its owner.
func TestReaderExitReleasesBuffers(t *testing.T) {
	for _, path := range bothPaths {
		t.Run(path.name, func(t *testing.T) {
			const n = 200
			pool := buf.NewPool()
			sched := sim.NewScheduler()
			clk := NewClock(sched, Config{Pool: pool})
			defer clk.Stop()
			ca, cb := listen(t), listen(t)
			la := clk.NewLink(path.wrap(ca), cb.LocalAddr())
			lb := clk.NewLink(path.wrap(cb), ca.LocalAddr())
			echoed := 0
			lb.SetHandler(func(p []byte) { _ = lb.Send(p) })
			la.SetHandler(func(p []byte) { echoed++ })
			sched.After(0, func() {
				for i := 0; i < n; i++ {
					_ = la.SendRef(pool.Get(100 + i%3))
				}
			})
			runUntil(t, clk, "the echoes", func() bool { return echoed == n })
			ca.Close()
			cb.Close()
			var st buf.Stats
			start := time.Now()
			clk.Run(func() bool {
				if st = pool.Stats(); time.Since(start) > 10*time.Second {
					t.Fatalf("the pool handed out %d buffers and got %d back", st.Gets, st.Puts)
				}
				return st.Gets == st.Puts
			})
		})
	}
}

// TestSendErrorMidBatch: sendmmsg stops at the first message it cannot
// send. A datagram too long for UDP fails every time it is tried, so
// two of them in a queue of 40 show the whole rule: the failing
// datagram is counted and skipped, nothing else is, and everything
// behind it still goes out, in order.
func TestSendErrorMidBatch(t *testing.T) {
	const queued = 40
	tooLong := map[int]bool{13: true, 27: true}
	pool := buf.NewPool()
	sched := sim.NewScheduler()
	clk := NewClock(sched, Config{Pool: pool})
	defer clk.Stop()
	la, lb, closeConns := echoPair(t, clk)
	defer closeConns()
	if !batched(la) {
		t.Skip("no batch path on this platform")
	}
	var got []byte
	lb.SetHandler(func(p []byte) { got = append(got, p[0]) })
	var want []byte
	sched.After(0, func() {
		for i := 0; i < queued; i++ {
			n := 16
			if tooLong[i] {
				n = 1 << 16 // over UDP's 65507-byte limit: EMSGSIZE
			} else {
				want = append(want, byte(i))
			}
			ref := pool.Get(n)
			ref.Bytes()[0] = byte(i)
			_ = la.SendRef(ref)
		}
	})
	runUntil(t, clk, "the datagrams around the failures", func() bool { return len(got) == queued-len(tooLong) })
	if la.SendErrs() != int64(len(tooLong)) || la.Sent() != int64(len(want)) {
		t.Errorf("%d sent and %d failed, want %d and %d", la.Sent(), la.SendErrs(), len(want), len(tooLong))
	}
	if string(got) != string(want) {
		t.Errorf("delivered %v, want %v", got, want)
	}
	// Both failures fall in the first vector of 32: a call that stops
	// short of each, a call that fails on each, a call for the rest of
	// that vector, and one for the second vector.
	if calls := la.TxCalls(); calls > 6 {
		t.Errorf("%d sendmmsg calls for %d datagrams with %d failures, want at most 6", calls, queued, len(tooLong))
	}
}

// TestSendToClosedPort: on a connected socket whose peer's port is
// closed, the ICMP answer to each datagram that goes out raises
// ECONNREFUSED, which the next send or receive on the socket then
// reports, so errors surface in the middle of sendmmsg vectors over
// and over (unless the reader's recvmmsg collects them first). Every
// queued datagram must end up sent or failed, and the flush must end
// without spinning.
func TestSendToClosedPort(t *testing.T) {
	const queued = 40
	pool := buf.NewPool()
	sched := sim.NewScheduler()
	clk := NewClock(sched, Config{Pool: pool})
	defer clk.Stop()
	gone := listen(t)
	peer := gone.LocalAddr().(*net.UDPAddr)
	gone.Close()
	conn, err := net.DialUDP("udp4", nil, peer)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	l := clk.NewLink(conn, peer)
	if !batched(l) {
		t.Skip("no batch path on this platform")
	}
	sched.After(0, func() {
		for i := 0; i < queued; i++ {
			_ = l.SendRef(pool.Get(16))
		}
	})
	runUntil(t, clk, "the flush to end", func() bool { return l.Sent()+l.SendErrs() == queued })
	t.Logf("%d sent and %d failed in %d sendmmsg calls", l.Sent(), l.SendErrs(), l.TxCalls())
	if calls := l.TxCalls(); calls > 2*queued {
		t.Errorf("%d sendmmsg calls for %d datagrams: the flush is spinning", calls, queued)
	}
}

// TestBatchRoundZeroAlloc guards the batch path's steady state: queue a
// train of pooled datagrams, flush it with sendmmsg, take it with
// recvmmsg, cross the inbox, dispatch each datagram, and the same back
// again as the echoes, with nothing allocated on any of the three
// goroutines.
func TestBatchRoundZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	const train = 8
	pool := buf.NewPool()
	sched := sim.NewScheduler()
	clk := NewClock(sched, Config{Pool: pool, MaxIdle: 50 * time.Microsecond})
	la, lb, closeConns := echoPair(t, clk)
	defer closeConns()
	if !batched(la) {
		t.Skip("no batch path on this platform")
	}
	kick, back, stop := make(chan struct{}), make(chan struct{}), make(chan struct{})
	echoes := 0
	lb.SetHandler(func(p []byte) { _ = lb.Send(p) })
	la.SetHandler(func(p []byte) {
		if echoes++; echoes%train == 0 {
			back <- struct{}{}
		}
	})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		// The loop polls for a kick on every pass; MaxIdle bounds the wait.
		clk.Run(func() bool {
			select {
			case <-kick:
				for i := 0; i < train; i++ {
					ref := pool.Get(256)
					binary.BigEndian.PutUint64(ref.Bytes(), 0xA1F)
					_ = la.SendRef(ref)
				}
			case <-stop:
				return true
			default:
			}
			return false
		})
	}()
	round := func() {
		kick <- struct{}{}
		<-back
	}
	for i := 0; i < 64; i++ {
		round() // warm the pool's size classes and the inbox
	}
	allocs := testing.AllocsPerRun(200, round)
	close(stop)
	<-exited
	clk.Stop()
	if allocs != 0 {
		t.Fatalf("send -> flush -> receive -> dispatch round allocates %v allocs/op, want 0", allocs)
	}
	if msgs := la.TxMsgs(); msgs*train != la.Sent() {
		t.Errorf("%d datagrams left in %d messages, want trains of %d", la.Sent(), msgs, train)
	}
}
