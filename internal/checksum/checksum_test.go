package checksum

import (
	"hash/crc32"
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

func TestCRC32MatchesStdlib(t *testing.T) {
	f := func(data []byte) bool {
		return CRC32(data) == crc32.ChecksumIEEE(data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestCRC32KnownVector(t *testing.T) {
	if got := CRC32([]byte("123456789")); got != 0xCBF43926 {
		t.Errorf("CRC32 check value = %#08x, want 0xCBF43926", got)
	}
}

func TestCRC32UpdateChaining(t *testing.T) {
	data := []byte("the quick brown fox jumps over the lazy dog")
	whole := CRC32(data)
	part := CRC32Update(CRC32Update(0, data[:10]), data[10:])
	if part != whole {
		t.Errorf("chained CRC %#08x != whole %#08x", part, whole)
	}
}

func TestFletcher32KnownVectors(t *testing.T) {
	// The classic literature vectors ("abcde" -> 0xF04FC729) are stated
	// for little-endian 16-bit words. This package uses network byte
	// order, so the expected values are the same sums over byte-swapped
	// words, computed here with an independent per-word-reduction
	// reference.
	ref := func(in []byte) uint32 {
		var c0, c1 uint32
		for i := 0; i < len(in); i += 2 {
			w := uint32(in[i]) << 8
			if i+1 < len(in) {
				w |= uint32(in[i+1])
			}
			c0 = (c0 + w) % 65535
			c1 = (c1 + c0) % 65535
		}
		return c1<<16 | c0
	}
	for _, in := range []string{"", "a", "ab", "abcde", "abcdef", "abcdefgh"} {
		if got, want := Fletcher32([]byte(in)), ref([]byte(in)); got != want {
			t.Errorf("Fletcher32(%q) = %#08x, want %#08x", in, got, want)
		}
	}
	// Spot-check against the published little-endian vector by swapping
	// input bytes pairwise: Fletcher32_BE(swap("abcde")) == 0xF04FC729.
	swapped := []byte{'b', 'a', 'd', 'c', 0, 'e'}
	if got := Fletcher32(swapped); got != 0xF04FC729 {
		t.Errorf("byte-swapped literature vector = %#08x, want 0xF04FC729", got)
	}
}

func TestFletcher32LargeNoOverflow(t *testing.T) {
	// A long run of 0xff words stresses the modular-reduction blocking.
	data := make([]byte, 1<<20)
	for i := range data {
		data[i] = 0xff
	}
	got := Fletcher32(data)
	// Reference with per-word reduction.
	var c0, c1 uint32
	for i := 0; i < len(data); i += 2 {
		c0 = (c0 + 0xffff) % 65535
		c1 = (c1 + c0) % 65535
	}
	want := c1<<16 | c0
	if got != want {
		t.Errorf("Fletcher32 = %#08x, want %#08x", got, want)
	}
}

func TestFletcher32DetectsTransposition(t *testing.T) {
	// Unlike the plain sum, Fletcher is position-sensitive.
	a := Fletcher32([]byte{1, 2, 3, 4})
	b := Fletcher32([]byte{3, 4, 1, 2})
	if a == b {
		t.Error("Fletcher32 failed to detect word transposition")
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

func BenchmarkCRC32_4KB(b *testing.B) {
	data := make([]byte, 4096)
	rand.New(rand.NewSource(1)).Read(data)
	b.SetBytes(4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		CRC32(data)
	}
}

func BenchmarkFletcher32_4KB(b *testing.B) {
	data := make([]byte, 4096)
	rand.New(rand.NewSource(1)).Read(data)
	b.SetBytes(4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Fletcher32(data)
	}
}
