package scramble

import (
	"bytes"
	"math/rand"
	"testing"
)

func BenchmarkXORAt_4KB(b *testing.B) {
	data := make([]byte, 4096)
	b.SetBytes(4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		XORAt(1, 0, data)
	}
}

func TestXORAtInvolution(t *testing.T) {
	// Key 0 included: internal/layered keys each ADU by key^seq.
	for _, key := range []uint64{0, 5} {
		data := make([]byte, 100)
		for i := range data {
			data[i] = byte(i)
		}
		orig := append([]byte(nil), data...)
		XORAt(key, 0, data)
		if bytes.Equal(data, orig) {
			t.Errorf("key %d: XORAt did nothing", key)
		}
		XORAt(key, 0, data)
		if !bytes.Equal(data, orig) {
			t.Errorf("key %d: XORAt not an involution", key)
		}
	}
}

func TestXORAtChunkedMatchesWhole(t *testing.T) {
	// Applying the counter-mode keystream to 8-aligned chunks in any
	// order must equal one whole-buffer application.
	r := rand.New(rand.NewSource(4))
	n := 1000
	whole := make([]byte, n)
	r.Read(whole)
	chunked := append([]byte(nil), whole...)
	XORAt(77, 0, whole)

	// Chunks of 64,8,16... applied back-to-front.
	bounds := []int{0, 64, 72, 88, 512, 1000}
	for i := len(bounds) - 2; i >= 0; i-- {
		XORAt(77, bounds[i], chunked[bounds[i]:bounds[i+1]])
	}
	if !bytes.Equal(whole, chunked) {
		t.Error("chunked XORAt differs from whole")
	}
}

func TestXORAtUnalignedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unaligned offset did not panic")
		}
	}()
	XORAt(1, 3, make([]byte, 8))
}

func TestWordAtDistinct(t *testing.T) {
	seen := map[uint64]bool{}
	for i := uint64(0); i < 1000; i++ {
		w := WordAt(9, i)
		if seen[w] {
			t.Fatalf("WordAt collision at idx %d", i)
		}
		seen[w] = true
	}
	if WordAt(1, 0) == WordAt(2, 0) {
		t.Error("different keys gave same word")
	}
	if WordAt(3, 5) != WordAt(3, 5) {
		t.Error("WordAt not deterministic")
	}
}
