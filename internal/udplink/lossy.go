package udplink

import (
	"net"
	"sync"
)

// LossyConn wraps a net.PacketConn and drops outgoing datagrams
// deterministically: an xorshift64* stream seeded explicitly decides
// each outgoing datagram, so a soak run's drop pattern is reproducible
// regardless of goroutine timing (drops on the send side commit before
// the kernel introduces any nondeterminism). DropNth, when positive,
// additionally drops every Nth datagram exactly — useful for FEC tests
// that need a precise loss shape.
type LossyConn struct {
	net.PacketConn
	mu      sync.Mutex
	state   uint64
	prob    float64
	nth     int
	count   int
	dropped int64
}

// NewLossyConn wraps conn with independent drop probability prob
// (0..1) under the given seed. Zero prob passes everything (use
// SetDropNth for exact patterns).
func NewLossyConn(conn net.PacketConn, prob float64, seed uint64) *LossyConn {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &LossyConn{PacketConn: conn, prob: prob, state: seed}
}

// SetDropNth makes every nth outgoing datagram (1-based counting)
// disappear, in addition to probabilistic drops. Zero disables.
func (c *LossyConn) SetDropNth(n int) {
	c.mu.Lock()
	c.nth = n
	c.mu.Unlock()
}

// Dropped returns how many datagrams were eaten.
func (c *LossyConn) Dropped() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropped
}

// drop decides the fate of the next outgoing datagram. A Link on the
// batch path calls it for each queued datagram, in queue order, where
// a wrapped conn sees WriteTo: the decisions are the same either way.
func (c *LossyConn) drop() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.count++
	drop := c.nth > 0 && c.count%c.nth == 0
	if !drop && c.prob > 0 {
		c.state ^= c.state >> 12
		c.state ^= c.state << 25
		c.state ^= c.state >> 27
		r := float64(c.state*0x2545F4914F6CDD1D>>11) / (1 << 53)
		drop = r < c.prob
	}
	if drop {
		c.dropped++
	}
	return drop
}

// WriteTo drops or forwards. A dropped datagram reports success — the
// wire ate it, as far as the sender can tell.
func (c *LossyConn) WriteTo(p []byte, addr net.Addr) (int, error) {
	if c.drop() {
		return len(p), nil
	}
	return c.PacketConn.WriteTo(p, addr)
}
