package checksum

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSum16KnownVector(t *testing.T) {
	// Classic RFC 1071 worked example: the words 0x0001, 0xf203, 0xf4f5,
	// 0xf6f7 sum to 0x2ddf0 -> fold 0xddf2 -> complement 0x220d.
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Sum16(data); got != 0x220d {
		t.Errorf("Sum16 = %#04x, want 0x220d", got)
	}
}

func TestSum16Empty(t *testing.T) {
	if got := Sum16(nil); got != 0xffff {
		t.Errorf("Sum16(nil) = %#04x, want 0xffff", got)
	}
}

func TestSum16OddLength(t *testing.T) {
	// Odd final byte is padded with zero on the right: 0xab00.
	if got := Sum16([]byte{0xab}); got != ^uint16(0xab00) {
		t.Errorf("Sum16 odd = %#04x, want %#04x", got, ^uint16(0xab00))
	}
}

func TestVerify16RoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := r.Intn(4096) + 2
		if n%2 != 0 {
			n++
		}
		data := make([]byte, n)
		r.Read(data)
		// Zero a checksum slot, compute, insert, verify.
		data[0], data[1] = 0, 0
		ck := Sum16(data)
		data[0], data[1] = byte(ck>>8), byte(ck)
		if !Verify16(data) {
			t.Fatalf("trial %d: verify failed after inserting checksum", trial)
		}
		// Flip one bit: must fail (one's-complement sum detects all
		// single-bit errors).
		pos := r.Intn(n)
		data[pos] ^= 1 << uint(r.Intn(8))
		if Verify16(data) {
			t.Fatalf("trial %d: verify passed with flipped bit", trial)
		}
	}
}

func TestAccumulateChaining(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	data := make([]byte, 1024)
	r.Read(data)
	whole := Fold(Accumulate(0, data))
	// Chain over even-length chunks must match.
	sum := uint64(0)
	for i := 0; i < len(data); i += 128 {
		sum = Accumulate(sum, data[i:i+128])
	}
	if Fold(sum) != whole {
		t.Error("chained accumulation differs from whole-buffer sum")
	}
}

func TestSum16ByteSwapInvariance(t *testing.T) {
	// A well-known property: swapping the two bytes within any 16-bit
	// word leaves the one's-complement sum... NOT invariant, but
	// reordering whole 16-bit words does. Verify word-reorder invariance.
	data := []byte{0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc}
	perm := []byte{0x9a, 0xbc, 0x12, 0x34, 0x56, 0x78}
	if Sum16(data) != Sum16(perm) {
		t.Error("word reordering changed the one's-complement sum")
	}
}

func TestSum16PropertyMatchesReference(t *testing.T) {
	f := func(data []byte) bool { return Sum16(data) == ^Fold(ref16(0, data)) }
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSum16_4KB(b *testing.B) {
	data := make([]byte, 4096)
	rand.New(rand.NewSource(1)).Read(data)
	b.SetBytes(4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Sum16(data)
	}
}
