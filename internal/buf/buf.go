// Package buf provides pooled, reference-counted wire buffers — the
// allocation-free substrate under the transport datapath.
//
// The paper's §4 argument is that touching memory dominates protocol
// cost; its §6 conclusion is that data should cross layers without one
// pass (or one allocation) per layer. The fused kernels in internal/ilp
// remove the extra passes; this package removes the extra allocations
// and copies around them:
//
//   - A Pool hands out size-classed slabs and takes them back, so the
//     steady-state send/forward/receive path allocates nothing.
//   - A Ref is a counted reference to one slab. The sender, the network
//     simulator, sender-side retention, and duplicated deliveries can
//     all hold the same bytes at once; the last Release returns the
//     slab to the pool.
//   - Headroom-aware views let a protocol header be prepended in place
//     (Prepend), so packetization writes the payload once and never
//     copies it again to make room for the header.
//
// Ownership rules (see docs/ARCHITECTURE.md, "The buffer plane"):
//
//   - Get returns a Ref with count 1; whoever holds a count owns one
//     release.
//   - Passing a Ref to a function transfers the caller's count unless
//     the callee's contract says otherwise; keep your own with Retain.
//   - The bytes of a shared Ref (Shared() == true) are immutable: a
//     holder that must mutate (e.g. netsim's bit-error impairment)
//     clones first (copy-on-write).
//
// Counts are atomic and the pool is mutex-guarded, so refs may be
// retained and released across goroutines, but a single Ref's view
// (Prepend/Trim) must not be reshaped concurrently.
package buf

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Size classes are powers of two from minClass to maxClass; larger
// buffers are allocated exactly and never pooled (they would pin large
// slabs for rare jumbo ADUs).
const (
	minClassBits = 6  // 64 B
	maxClassBits = 24 // 16 MiB, the default MaxADU
	numClasses   = maxClassBits - minClassBits + 1
)

// classFor returns the size-class index for a capacity, or -1 when the
// capacity is too large to pool.
func classFor(n int) int {
	if n <= 1<<minClassBits {
		return 0
	}
	c := bits.Len(uint(n-1)) - minClassBits
	if c >= numClasses {
		return -1
	}
	return c
}

// Stats counts pool events. Gets - News is the number of recycled
// hand-outs; a steady-state datapath shows News flat while Gets climbs.
type Stats struct {
	Gets     int64 // buffers handed out
	Puts     int64 // buffers returned
	News     int64 // pool misses: a fresh Ref had to be allocated
	Unpooled int64 // over-maxClass allocations, never recycled
}

// Pool hands out refcounted slab buffers by size class. The zero value
// is not usable; create pools with NewPool. Pools are safe for
// concurrent use.
type Pool struct {
	mu      sync.Mutex
	classes [numClasses][]*Ref
	free    []*Ref // Ref structs whose slabs were unpooled
	stats   Stats
}

// Default is the process-wide pool the transport layers fall back to
// when no explicit pool is configured. Sharing one pool closes the
// recycling loop end to end: a fragment slab released by the network
// after delivery is the next fragment the sender gets.
var Default = NewPool()

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// Stats returns a snapshot of the pool counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Get returns a Ref viewing n bytes with no headroom and a reference
// count of 1. The bytes are not zeroed.
func (p *Pool) Get(n int) *Ref { return p.GetHeadroom(n, 0) }

// GetHeadroom returns a Ref viewing n bytes, preceded by at least
// headroom spare bytes that Prepend can later claim for a header
// without moving the payload. The view's bytes are not zeroed.
func (p *Pool) GetHeadroom(n, headroom int) *Ref {
	if n < 0 || headroom < 0 {
		panic("buf: negative size")
	}
	need := n + headroom
	c := classFor(need)
	p.mu.Lock()
	p.stats.Gets++
	var r *Ref
	if c >= 0 {
		if fl := p.classes[c]; len(fl) > 0 {
			r = fl[len(fl)-1]
			fl[len(fl)-1] = nil
			p.classes[c] = fl[:len(fl)-1]
		}
	}
	if r == nil && len(p.free) > 0 {
		r = p.free[len(p.free)-1]
		p.free[len(p.free)-1] = nil
		p.free = p.free[:len(p.free)-1]
	}
	if r == nil {
		p.stats.News++
		r = &Ref{pool: p}
	}
	if c >= 0 {
		if want := 1 << (uint(c) + minClassBits); len(r.slab) != want {
			r.slab = make([]byte, want)
		}
	} else {
		p.stats.Unpooled++
		r.slab = make([]byte, need)
	}
	p.mu.Unlock()
	r.off, r.n = headroom, n
	r.refs.Store(1)
	return r
}

// put returns a released ref to the freelist.
func (p *Pool) put(r *Ref) {
	c := classFor(len(r.slab))
	if c >= 0 && len(r.slab) != 1<<(uint(c)+minClassBits) {
		c = -1 // unpooled exact-size slab; drop it
	}
	p.mu.Lock()
	p.stats.Puts++
	if c >= 0 {
		p.classes[c] = append(p.classes[c], r)
	} else {
		r.slab = nil
		p.free = append(p.free, r)
	}
	p.mu.Unlock()
}

// Ref is one counted reference to a pooled slab, exposing a
// [off, off+n) view of it. Create refs with Pool.Get/GetHeadroom.
type Ref struct {
	pool *Pool
	slab []byte
	off  int
	n    int
	refs atomic.Int32
}

// Bytes returns the current view. The slice is valid until the last
// reference is released; a shared ref's bytes must not be mutated.
func (r *Ref) Bytes() []byte { return r.slab[r.off : r.off+r.n] }

// Len returns the view length.
func (r *Ref) Len() int { return r.n }

// Headroom returns the spare bytes in front of the view that Prepend
// may still claim.
func (r *Ref) Headroom() int { return r.off }

// Shared reports whether more than one reference is outstanding.
// Holders must treat a shared ref's bytes as immutable.
func (r *Ref) Shared() bool { return r.refs.Load() > 1 }

// Retain adds a reference and returns r for chaining.
func (r *Ref) Retain() *Ref {
	if r.refs.Add(1) <= 1 {
		panic("buf: Retain of released ref")
	}
	return r
}

// Release drops one reference. The last release returns the slab to
// the pool; using the view after that is a use-after-free.
func (r *Ref) Release() {
	switch left := r.refs.Add(-1); {
	case left == 0:
		r.pool.put(r)
	case left < 0:
		panic("buf: Release of released ref")
	}
}

// Prepend grows the view downward by k bytes — claiming headroom so a
// header lands immediately before the payload with no copy — and
// returns the newly exposed front region. It panics when less than k
// headroom remains.
func (r *Ref) Prepend(k int) []byte {
	if k < 0 || k > r.off {
		panic(fmt.Sprintf("buf: Prepend(%d) with %d headroom", k, r.off))
	}
	r.off -= k
	r.n += k
	return r.slab[r.off : r.off+k]
}

// Trim shrinks the view to its first n bytes. It panics when n exceeds
// the current length.
func (r *Ref) Trim(n int) {
	if n < 0 || n > r.n {
		panic(fmt.Sprintf("buf: Trim(%d) of %d-byte view", n, r.n))
	}
	r.n = n
}

// Clone returns an independent count-1 copy of the view taken from the
// same pool, preserving the current headroom. This is the
// copy-on-write step for holders that must mutate shared bytes.
func (r *Ref) Clone() *Ref {
	c := r.pool.GetHeadroom(r.n, r.off)
	copy(c.Bytes(), r.Bytes())
	return c
}
