package buf

import (
	"bytes"
	"testing"
)

func TestClassFor(t *testing.T) {
	cases := []struct {
		n, class int
	}{
		{0, 0}, {1, 0}, {64, 0}, {65, 1}, {128, 1}, {129, 2},
		{1 << 24, maxClassBits - minClassBits}, {1<<24 + 1, -1},
	}
	for _, c := range cases {
		if got := classFor(c.n); got != c.class {
			t.Errorf("classFor(%d) = %d, want %d", c.n, got, c.class)
		}
	}
}

func TestGetReleaseRecycles(t *testing.T) {
	p := NewPool()
	r := p.Get(100)
	if r.Len() != 100 {
		t.Fatalf("Len = %d", r.Len())
	}
	slab := &r.slab[0]
	r.Release()
	r2 := p.Get(80) // same class (128)
	if &r2.slab[0] != slab {
		t.Error("expected slab reuse within the class")
	}
	st := p.Stats()
	if st.Gets != 2 || st.Puts != 1 || st.News != 1 {
		t.Errorf("stats = %+v", st)
	}
	r2.Release()
}

func TestRetainDelaysRecycle(t *testing.T) {
	p := NewPool()
	r := p.Get(64)
	copy(r.Bytes(), "hello")
	r.Retain()
	r.Release()
	if got := string(r.Bytes()[:5]); got != "hello" {
		t.Fatalf("bytes after first release = %q", got)
	}
	if r.Shared() {
		t.Error("Shared after one release of two refs")
	}
	r.Release()
	if p.Stats().Puts != 1 {
		t.Error("slab not returned after last release")
	}
}

func TestHeadroomPrepend(t *testing.T) {
	p := NewPool()
	r := p.GetHeadroom(32, 16)
	if r.Headroom() != 16 || r.Len() != 32 {
		t.Fatalf("headroom %d len %d", r.Headroom(), r.Len())
	}
	payload := r.Bytes()
	for i := range payload {
		payload[i] = byte(i)
	}
	hdr := r.Prepend(8)
	if len(hdr) != 8 || r.Len() != 40 || r.Headroom() != 8 {
		t.Fatalf("after prepend: hdr %d len %d headroom %d", len(hdr), r.Len(), r.Headroom())
	}
	copy(hdr, "HDRHDRHD")
	want := append([]byte("HDRHDRHD"), payload...)
	if !bytes.Equal(r.Bytes(), want) {
		t.Error("prepend moved or corrupted the payload")
	}
	// The payload slice and the grown view alias the same memory.
	if &r.Bytes()[8] != &payload[0] {
		t.Error("payload was copied by Prepend")
	}
}

func TestCloneIsIndependent(t *testing.T) {
	p := NewPool()
	r := p.GetHeadroom(16, 4)
	copy(r.Bytes(), "abcdefghijklmnop")
	c := r.Clone()
	if !bytes.Equal(c.Bytes(), r.Bytes()) {
		t.Fatal("clone differs")
	}
	if c.Headroom() != r.Headroom() {
		t.Error("clone lost headroom")
	}
	c.Bytes()[0] = 'X'
	if r.Bytes()[0] != 'a' {
		t.Error("clone shares backing store")
	}
	c.Release()
	r.Release()
}

func TestUnpooledLargeBuffer(t *testing.T) {
	p := NewPool()
	r := p.Get(1<<24 + 1)
	if r.Len() != 1<<24+1 {
		t.Fatalf("Len = %d", r.Len())
	}
	r.Release()
	if st := p.Stats(); st.Unpooled != 1 {
		t.Errorf("Unpooled = %d", st.Unpooled)
	}
	// The Ref struct is recycled even though the slab is not.
	r2 := p.Get(64)
	if st := p.Stats(); st.News != 1 {
		t.Errorf("News = %d after large-then-small, want 1", st.News)
	}
	r2.Release()
}

func TestReleasePanicsOnDouble(t *testing.T) {
	p := NewPool()
	r := p.Get(8)
	r.Release()
	defer func() {
		if recover() == nil {
			t.Error("double Release did not panic")
		}
	}()
	r.Release()
}

func TestSteadyStateZeroAlloc(t *testing.T) {
	p := NewPool()
	warm := p.GetHeadroom(1024, 34)
	warm.Release()
	allocs := testing.AllocsPerRun(1000, func() {
		r := p.GetHeadroom(1024, 34)
		r.Prepend(34)
		r.Release()
	})
	if allocs != 0 {
		t.Errorf("steady-state Get/Prepend/Release allocates %.1f/op", allocs)
	}
}

func BenchmarkGetRelease(b *testing.B) {
	p := NewPool()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := p.GetHeadroom(1024, 34)
		r.Release()
	}
}
