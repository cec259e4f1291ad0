//go:build amd64 || arm64

package udplink

import (
	"net"
	"syscall"
	"testing"
	"time"

	"repro/internal/buf"
	"repro/internal/sim"
)

// noTrains makes the kernel refuse every train the socket is given and
// nothing else: UDP_SEGMENT needs the UDP checksum, so with SO_NO_CHECK
// set a send that carries it fails with EINVAL, and a plain one goes
// out as before. It stands in for a kernel or a device without
// segmentation offload.
func noTrains(c net.PacketConn) net.PacketConn {
	setsockopt(c, syscall.SOL_SOCKET, syscall.SO_NO_CHECK, 1)
	return c
}

func setsockopt(c net.PacketConn, level, opt, value int) {
	rc, err := c.(*net.UDPConn).SyscallConn()
	if err == nil {
		if cerr := rc.Control(func(fd uintptr) { err = syscall.SetsockoptInt(int(fd), level, opt, value) }); cerr != nil {
			err = cerr
		}
	}
	if err != nil {
		panic(err)
	}
}

func init() {
	// The batch path once its first train has been refused: every
	// message a train of one from then on.
	morePaths = append(morePaths, sockPath{"train-refusing", noTrains})
}

// TestTrainRefused: when the kernel will not take a train, its
// datagrams go out one by one in the same flush, none is lost, doubled,
// reordered or counted as a send error, and the link builds no train
// again: the second flush costs one sendmmsg call, not one refusal more.
func TestTrainRefused(t *testing.T) {
	const burst = 40
	pool := buf.NewPool()
	sched := sim.NewScheduler()
	clk := NewClock(sched, Config{Pool: pool})
	defer clk.Stop()
	ca, cb := listen(t), listen(t)
	la := clk.NewLink(noTrains(ca), cb.LocalAddr())
	lb := clk.NewLink(cb, ca.LocalAddr())
	var got []byte
	lb.SetHandler(func(p []byte) { got = append(got, p[0]) })
	queue := func(first int) {
		for i := first; i < first+burst; i++ {
			ref := pool.Get(64)
			ref.Bytes()[0] = byte(i)
			_ = la.SendRef(ref)
		}
	}
	var callsAfterFirst int64
	sched.After(0, func() { queue(0) })
	sched.Every(100*time.Microsecond, func() bool {
		if len(got) < burst {
			return true
		}
		callsAfterFirst = la.TxCalls()
		queue(burst)
		return false
	})
	runUntil(t, clk, "both bursts", func() bool { return len(got) == 2*burst })
	for i, b := range got {
		if int(b) != i {
			t.Fatalf("delivered %v, want 0..%d in order", got, 2*burst-1)
		}
	}
	if la.Sent() != 2*burst || la.SendErrs() != 0 || la.TxMsgs() != 2*burst {
		t.Errorf("%d sent, %d failed, %d messages; want %d, 0 and %d", la.Sent(), la.SendErrs(), la.TxMsgs(), 2*burst, 2*burst)
	}
	if cap := la.io.(*mmsgIO).maxSegs; cap != 1 {
		t.Errorf("train cap %d after a refusal, want 1", cap)
	}
	// The train, refused; its 40 datagrams (Batch is 32), in two calls.
	if callsAfterFirst != 3 || la.TxCalls() != callsAfterFirst+2 {
		t.Errorf("%d sendmmsg calls for the refused burst and %d for the next, want 3 and 2", callsAfterFirst, la.TxCalls()-callsAfterFirst)
	}
}

// TestNoGRO: a socket that did not take UDP_GRO is handed a train as
// the kernel cut it, datagram by datagram into MTU-long buffers (a
// datagram over MTU shows as truncated, and is dropped for that): the
// link behaves as it did before trains.
func TestNoGRO(t *testing.T) {
	const mtu, train = maxDatagram, 8
	pool := buf.NewPool()
	sched := sim.NewScheduler()
	clk := NewClock(sched, Config{Pool: pool})
	defer clk.Stop()
	ca, cb := listen(t), listen(t)
	la := clk.NewLink(ca, cb.LocalAddr())
	// NewLink, for a socket whose UDP_GRO failed.
	lb := &Link{clk: clk}
	io := newMmsgIO(cb, ca.LocalAddr(), &clk.cfg, &lb.stats).(*mmsgIO)
	setsockopt(cb, solUDP, udpGRO, 0)
	io.gro = false
	lb.io = io
	clk.links = append(clk.links, lb)
	go lb.readLoop()

	got := 0
	lb.SetHandler(func(p []byte) {
		if len(p) != mtu || int(p[0]) != got {
			t.Errorf("datagram %d: %d bytes starting %d", got, len(p), p[0])
		}
		got++
	})
	sched.After(0, func() {
		for i := 0; i < train; i++ {
			ref := pool.Get(mtu)
			ref.Bytes()[0] = byte(i)
			_ = la.SendRef(ref)
		}
		_ = la.SendRef(pool.Get(mtu + 1))
	})
	runUntil(t, clk, "the train and the drop", func() bool { return got == train && lb.Dropped() == 1 })
	if la.TxMsgs() != 2 || lb.RxMsgs() != train+1 {
		t.Errorf("%d messages written and %d read, want 2 and %d", la.TxMsgs(), lb.RxMsgs(), train+1)
	}
}
