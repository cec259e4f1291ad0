package udplink

import (
	"errors"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/buf"
	"repro/internal/sim"
)

// echoPair wires two loopback sockets into one Clock and returns the
// links (a sends to b's address and vice versa).
func echoPair(t testing.TB, clk *Clock) (*Link, *Link, func()) {
	t.Helper()
	ca, err := net.ListenPacket("udp4", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cb, err := net.ListenPacket("udp4", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	la := clk.NewLink(ca, cb.LocalAddr())
	lb := clk.NewLink(cb, ca.LocalAddr())
	return la, lb, func() { ca.Close(); cb.Close() }
}

// TestLinkRoundTrip pushes datagrams both ways through real sockets and
// checks they arrive intact on the loop goroutine.
func TestLinkRoundTrip(t *testing.T) {
	sched := sim.NewScheduler()
	clk := NewClock(sched, Config{Pool: buf.NewPool()})
	la, lb, closeConns := echoPair(t, clk)
	defer closeConns()

	const n = 50
	gotA, gotB := 0, 0
	la.SetHandler(func(p []byte) {
		if len(p) != 3 || p[0] != 'b' {
			t.Errorf("link a got %q", p)
		}
		gotA++
	})
	lb.SetHandler(func(p []byte) {
		if len(p) != 3 || p[0] != 'a' {
			t.Errorf("link b got %q", p)
		}
		gotB++
	})
	sent := 0
	sched.Every(100*time.Microsecond, func() bool {
		_ = la.Send([]byte{'a', byte(sent), byte(sent >> 8)})
		_ = lb.Send([]byte{'b', byte(sent), byte(sent >> 8)})
		sent++
		return sent < n
	})
	start := time.Now()
	clk.Run(func() bool {
		if time.Since(start) > 20*time.Second {
			t.Fatal("round trip timed out")
		}
		return gotA == n && gotB == n
	})
	clk.Stop()
	if la.Sent() != n || lb.Sent() != n {
		t.Errorf("sent counters a=%d b=%d, want %d", la.Sent(), lb.Sent(), n)
	}
	if la.Recvd() != n || lb.Recvd() != n {
		t.Errorf("recvd counters a=%d b=%d, want %d", la.Recvd(), lb.Recvd(), n)
	}
}

// TestLinkSendRefConsumes checks the zero-copy send path recycles the
// caller's reference after the datagram is written.
func TestLinkSendRefConsumes(t *testing.T) {
	pool := buf.NewPool()
	sched := sim.NewScheduler()
	clk := NewClock(sched, Config{Pool: pool})
	la, lb, closeConns := echoPair(t, clk)
	defer closeConns()

	got := 0
	lb.SetHandler(func(p []byte) {
		if len(p) != 100 || p[7] != 42 {
			t.Errorf("bad payload: len %d", len(p))
		}
		got++
	})
	sched.After(0, func() {
		ref := pool.Get(100)
		ref.Bytes()[7] = 42
		_ = la.SendRef(ref)
	})
	start := time.Now()
	clk.Run(func() bool {
		if time.Since(start) > 10*time.Second {
			t.Fatal("SendRef delivery timed out")
		}
		return got == 1
	})
	clk.Stop()
}

// TestLossyConnDeterministic checks the drop stream is a pure function
// of the seed, and that DropNth drops exactly the right datagrams.
func TestLossyConnDeterministic(t *testing.T) {
	run := func(seed uint64) []bool {
		inner, err := net.ListenPacket("udp4", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer inner.Close()
		lc := NewLossyConn(inner, 0.3, seed)
		pattern := make([]bool, 200)
		before := int64(0)
		for i := range pattern {
			_, _ = lc.WriteTo([]byte{1}, inner.LocalAddr())
			pattern[i] = lc.Dropped() > before
			before = lc.Dropped()
		}
		return pattern
	}
	a, b := run(7), run(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at datagram %d", i)
		}
	}
	if run(7)[0] == true && run(8)[0] == true && run(9)[0] == true {
		// Not a correctness property, but three seeds all dropping the
		// first datagram at p=0.3 would suggest a broken generator.
		t.Error("suspicious: every seed drops datagram 0")
	}

	inner, err := net.ListenPacket("udp4", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer inner.Close()
	lc := NewLossyConn(inner, 0, 1)
	lc.SetDropNth(3)
	for i := 1; i <= 9; i++ {
		_, _ = lc.WriteTo([]byte{1}, inner.LocalAddr())
	}
	if got := lc.Dropped(); got != 3 {
		t.Errorf("DropNth(3) over 9 writes dropped %d, want 3", got)
	}

	// Through a Link the stream is consulted once per queued datagram, in
	// queue order, whichever path writes the batch: the same seed and
	// DropNth lose the same datagrams on both, and they are the ones
	// direct WriteTo calls lose.
	const n, nth = 200, 7
	direct := NewLossyConn(inner, 0.3, 7)
	direct.SetDropNth(nth)
	want := make([]bool, n)
	for i := range want {
		before := direct.Dropped()
		_, _ = direct.WriteTo([]byte{1}, inner.LocalAddr())
		want[i] = direct.Dropped() > before
	}
	for _, path := range bothPaths {
		if got := linkDropPattern(t, path, n, nth, 0.3, 7); !reflect.DeepEqual(got, want) {
			t.Errorf("%s socket: a link drops %v, direct writes drop %v", path.name, got, want)
		}
	}
}

// linkDropPattern sends n numbered datagrams through a link over a
// LossyConn and reports which never arrived. It sends 25 at a time,
// each lot once the survivors of the last have arrived, so the only
// losses are the LossyConn's.
func linkDropPattern(t *testing.T, path sockPath, n, nth int, prob float64, seed uint64) []bool {
	sched := sim.NewScheduler()
	clk := NewClock(sched, Config{Pool: buf.NewPool()})
	defer clk.Stop()
	ca, cb := listen(t), listen(t)
	lossy := NewLossyConn(ca, prob, seed)
	lossy.SetDropNth(nth)
	la := clk.NewLink(path.wrap(lossy), cb.LocalAddr())
	lb := clk.NewLink(cb, ca.LocalAddr())

	dropped := make([]bool, n)
	for i := range dropped {
		dropped[i] = true
	}
	got := int64(0)
	lb.SetHandler(func(p []byte) { dropped[p[0]] = false; got++ })
	queued := 0
	sched.Every(100*time.Microsecond, func() bool {
		if got == la.Sent()-lossy.Dropped() {
			for end := min(queued+25, n); queued < end; queued++ {
				_ = la.Send([]byte{byte(queued)})
			}
		}
		return queued < n
	})
	runUntil(t, clk, "the survivors", func() bool { return la.Sent() == int64(n) && got == la.Sent()-lossy.Dropped() })
	if lossy.Dropped() == 0 || la.Sent() != int64(n) {
		t.Errorf("%s socket: %d of %d dropped, %d counted as sent", path.name, lossy.Dropped(), n, la.Sent())
	}
	return dropped
}

var errInjected = errors.New("injected read error")

// readCall is one ReadFrom call on a faultyConn: when it was made and
// what it returned.
type readCall struct {
	at  time.Time
	err error
}

// faultyConn fails with a persistent (non-timeout, non-closed) error
// every ReadFrom call for which fail, given the calls so far, says so;
// the others read from the socket.
type faultyConn struct {
	net.PacketConn
	fail  func(calls []readCall) bool
	mu    sync.Mutex
	calls []readCall
}

func (c *faultyConn) ReadFrom(p []byte) (n int, addr net.Addr, err error) {
	c.mu.Lock()
	i := len(c.calls)
	fail := c.fail(c.calls)
	c.calls = append(c.calls, readCall{at: time.Now()})
	c.mu.Unlock()
	if fail {
		err = errInjected
	} else {
		n, addr, err = c.PacketConn.ReadFrom(p)
	}
	c.mu.Lock()
	c.calls[i].err = err
	c.mu.Unlock()
	return n, addr, err
}

// runFaulty sends dgrams datagrams over loopback to a link reading
// through a faultyConn, runs the clock until all are delivered, and
// returns the reader's ReadFrom calls.
func runFaulty(t *testing.T, dgrams int, fail func([]readCall) bool) []readCall {
	t.Helper()
	sched := sim.NewScheduler()
	clk := NewClock(sched, Config{Pool: buf.NewPool()})
	ca, err := net.ListenPacket("udp4", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ca.Close()
	cb, err := net.ListenPacket("udp4", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cb.Close()
	faulty := &faultyConn{PacketConn: cb, fail: fail}
	la := clk.NewLink(ca, cb.LocalAddr())
	lb := clk.NewLink(faulty, ca.LocalAddr())

	got := 0
	lb.SetHandler(func(p []byte) { got++ })
	sched.After(0, func() {
		for i := 0; i < dgrams; i++ {
			_ = la.Send([]byte("ping"))
		}
	})
	start := time.Now()
	clk.Run(func() bool {
		if time.Since(start) > 20*time.Second {
			t.Fatal("delivery did not resume after the read errors cleared")
		}
		return got == dgrams
	})
	clk.Stop()

	faulty.mu.Lock()
	defer faulty.mu.Unlock()
	return append([]readCall(nil), faulty.calls...)
}

// TestReadLoopBacksOffOnPersistentError: a socket whose reads keep
// failing must not spin the reader. Six failures in a row are spaced
// by the doubling pause (0+1+2+4+8 ms between the first and the last),
// and once reads succeed again a datagram sent meanwhile is delivered.
func TestReadLoopBacksOffOnPersistentError(t *testing.T) {
	const failures = 6
	calls := runFaulty(t, 1, func(calls []readCall) bool { return len(calls) < failures })
	if len(calls) <= failures || calls[failures-1].err != errInjected || calls[failures].err != nil {
		t.Fatalf("reads after %d injected failures did not resume: %v", failures, calls)
	}
	// Sleeps never return early, so the lower bound is safe on any host.
	if span := calls[failures-1].at.Sub(calls[0].at); span < 15*time.Millisecond {
		t.Errorf("%d failing reads within %v: reader is not backing off", failures, span)
	}
	// After the failures: the read that got the datagram, and at most the
	// next one by the time the loop saw the delivery.
	if len(calls) > failures+2 {
		t.Errorf("%d read attempts for %d failures and one datagram", len(calls), failures)
	}
}

// TestReadLoopRetriesLoneErrorAtOnce: an error that is not repeated
// (the transient ICMP kind) must not park the reader. The first read
// and every read after a successful one fail once; each must be
// retried without a pause. A pause is never shorter than
// readBackoffMin, so one retry faster than that shows there is none,
// however busy the host.
func TestReadLoopRetriesLoneErrorAtOnce(t *testing.T) {
	const dgrams = 8
	calls := runFaulty(t, dgrams, func(calls []readCall) bool {
		return len(calls) == 0 || calls[len(calls)-1].err == nil
	})
	lone, fastest := 0, time.Duration(1<<62)
	for i, c := range calls[:len(calls)-1] {
		if c.err != errInjected {
			continue
		}
		lone++
		fastest = min(fastest, calls[i+1].at.Sub(c.at))
	}
	if lone == 0 {
		t.Fatal("no read error was injected")
	}
	if fastest >= readBackoffMin {
		t.Errorf("fastest retry of %d lone read errors took %v: the reader paused", lone, fastest)
	}
	t.Logf("%d lone errors over %d reads, fastest retry %v", lone, len(calls), fastest)
}
