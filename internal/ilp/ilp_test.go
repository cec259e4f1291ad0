package ilp

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/checksum"
	"repro/internal/scramble"
	"repro/internal/xcode"
)

func randBytes(n int, seed int64) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

func TestWordCopy(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 31, 32, 33, 4096, 4097} {
		src := randBytes(n, int64(n))
		dst := make([]byte, n)
		if got := WordCopy(dst, src); got != n {
			t.Errorf("n=%d: copied %d", n, got)
		}
		if !bytes.Equal(dst, src) {
			t.Errorf("n=%d: copy mismatch", n)
		}
	}
}

func TestWordCopyShortDst(t *testing.T) {
	src := []byte{1, 2, 3, 4, 5}
	dst := make([]byte, 3)
	if got := WordCopy(dst, src); got != 3 {
		t.Errorf("copied %d, want 3", got)
	}
	if !bytes.Equal(dst, src[:3]) {
		t.Error("short copy mismatch")
	}
}

func TestFusedCopyChecksumMatchesSeparate(t *testing.T) {
	for _, n := range []int{0, 1, 5, 8, 15, 16, 100, 4096, 4001} {
		src := randBytes(n, int64(n)+7)
		d1 := make([]byte, n)
		d2 := make([]byte, n)
		sep := SeparateCopyThenChecksum(d1, src)
		fus := FinishSum(FusedCopySum(d2, src))
		if sep != fus {
			t.Errorf("n=%d: separate %#04x != fused %#04x", n, sep, fus)
		}
		if !bytes.Equal(d1, d2) || !bytes.Equal(d1, src) {
			t.Errorf("n=%d: copies differ", n)
		}
		if want := checksum.Sum16(src); fus != want {
			t.Errorf("n=%d: fused %#04x != Sum16 %#04x", n, fus, want)
		}
	}
}

func TestFusedCopyChecksumProperty(t *testing.T) {
	f := func(src []byte) bool {
		dst := make([]byte, len(src))
		return FinishSum(FusedCopySum(dst, src)) == checksum.Sum16(src) && bytes.Equal(dst, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestEncodeBERInt32sChecksum(t *testing.T) {
	f := func(vs []int32) bool {
		enc, ck := EncodeBERInt32sChecksum(nil, vs)
		plain := xcode.AppendBERInt32s(nil, vs)
		return bytes.Equal(enc, plain) && ck == checksum.Sum16(enc)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestEncodeBERInt32sChecksumAppends(t *testing.T) {
	prefix := []byte{0xEE}
	enc, ck := EncodeBERInt32sChecksum(append([]byte(nil), prefix...), []int32{1, 2, 3})
	if enc[0] != 0xEE {
		t.Error("prefix clobbered")
	}
	if ck != checksum.Sum16(enc[1:]) {
		t.Error("checksum covers wrong region")
	}
}

func TestDecodeBERInt32sInto(t *testing.T) {
	vs := []int32{0, 1, -1, 1 << 20, -(1 << 20), 127, -128}
	enc := xcode.AppendBERInt32s(nil, vs)
	out := make([]int32, len(vs))
	n, used, err := DecodeBERInt32sInto(enc, out)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(vs) || used != len(enc) {
		t.Fatalf("n=%d used=%d", n, used)
	}
	for i := range vs {
		if out[i] != vs[i] {
			t.Errorf("out[%d] = %d, want %d", i, out[i], vs[i])
		}
	}
}

func TestDecodeBERInt32sIntoErrors(t *testing.T) {
	enc := xcode.AppendBERInt32s(nil, []int32{1, 2, 3})
	// Output too small.
	if _, _, err := DecodeBERInt32sInto(enc, make([]int32, 2)); err == nil {
		t.Error("short output accepted")
	}
	// Wrong tag.
	bad := append([]byte(nil), enc...)
	bad[0] = 0x04
	if _, _, err := DecodeBERInt32sInto(bad, make([]int32, 3)); err == nil {
		t.Error("wrong tag accepted")
	}
	// Truncated.
	if _, _, err := DecodeBERInt32sInto(enc[:len(enc)-1], make([]int32, 3)); err == nil {
		t.Error("truncated accepted")
	}
	// An INTEGER outside int32, refused rather than cut to 32 bits.
	wide, err := xcode.BER{}.EncodeValue(nil, xcode.SeqValue(xcode.Int64Value(1<<40+5), xcode.Int32Value(7)))
	if err != nil {
		t.Fatal(err)
	}
	out := make([]int32, 2)
	if n, _, err := DecodeBERInt32sInto(wide, out); !errors.Is(err, xcode.ErrOverflow) {
		t.Errorf("SEQUENCE{2^40+5, 7}: decoded %v, err %v; want ErrOverflow", out[:n], err)
	}
}

// FuzzDecodeBERInt32sInto holds the fused decoder against the codec's:
// whenever either yields an int32 array that fits out, the other yields
// the same ints from the same number of bytes.
func FuzzDecodeBERInt32sInto(f *testing.F) {
	wide, _ := xcode.BER{}.EncodeValue(nil, xcode.SeqValue(xcode.Int64Value(1<<40+5), xcode.Int32Value(7)))
	f.Add(wide, uint8(2))
	f.Add(xcode.AppendBERInt32s(nil, []int32{0, -1, 127, -128, 1 << 20, math.MinInt32}), uint8(6))
	f.Add(xcode.AppendBERInt32s(nil, nil), uint8(0))
	f.Add([]byte{0x30, 0x04, 0x02, 0x02, 0x00, 0x7f}, uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, size uint8) {
		out := make([]int32, size)
		n, used, err := DecodeBERInt32sInto(data, out)
		v, m, verr := xcode.BER{}.DecodeValue(data)
		codecOK := verr == nil && v.Kind == xcode.KindInt32s && len(v.Ints) <= len(out)
		if err != nil {
			if codecOK {
				t.Fatalf("codec decoded %v from %d bytes; DecodeBERInt32sInto: %v", v.Ints, m, err)
			}
			return
		}
		if !codecOK {
			t.Fatalf("DecodeBERInt32sInto decoded %v from %d bytes; codec: %v %v", out[:n], used, v.Kind, verr)
		}
		if used != m || !slices.Equal(out[:n], v.Ints) {
			t.Fatalf("DecodeBERInt32sInto decoded %v from %d bytes; codec %v from %d", out[:n], used, v.Ints, m)
		}
	})
}

func TestFusedPathEqualsLayeredPath(t *testing.T) {
	for k := 1; k <= 5; k++ {
		for _, n := range []int{0, 1, 8, 63, 64, 1000, 4096} {
			src := randBytes(n, int64(k*1000+n))
			fd := make([]byte, n)
			ld := make([]byte, n)
			scratch := make([]byte, n)

			fStages, fck := StandardStages(k, 77)
			FusedPath(fd, src, fStages)

			lStages, lck := StandardStages(k, 77)
			LayeredPath(ld, scratch, src, lStages)

			if !bytes.Equal(fd, ld) {
				t.Fatalf("k=%d n=%d: fused and layered outputs differ", k, n)
			}
			if fck != nil && fck.Sum() != lck.Sum() {
				t.Fatalf("k=%d n=%d: checksum stage disagrees: %#04x vs %#04x",
					k, n, fck.Sum(), lck.Sum())
			}
		}
	}
}

func TestChecksumStageMatchesKernel(t *testing.T) {
	src := randBytes(4096, 5)
	dst := make([]byte, 4096)
	stages := []WordStage{&ChecksumStage{}}
	FusedPath(dst, src, stages)
	if got, want := stages[0].(*ChecksumStage).Sum(), checksum.Sum16(src); got != want {
		t.Errorf("stage sum %#04x, want %#04x", got, want)
	}
}

// TestDecryptStageInverts runs one decrypt stage over every length
// 0…40 and 1 000, through both paths and twice each, so that a Tail not
// at the word the stage has reached, or a Reset that does not rewind,
// shows against XORAt from offset 0.
func TestDecryptStageInverts(t *testing.T) {
	const key = 9
	stages := []WordStage{NewDecryptStage(key)}
	lens := []int{1000}
	for n := 0; n <= 40; n++ {
		lens = append(lens, n)
	}
	for _, n := range lens {
		plain := randBytes(n, int64(n)+6)
		cipher := append([]byte(nil), plain...)
		scramble.XORAt(key, 0, cipher)
		dst, scratch := make([]byte, n), make([]byte, n)
		for pass := 0; pass < 2; pass++ {
			FusedPath(dst, cipher, stages)
			if !bytes.Equal(dst, plain) {
				t.Fatalf("n=%d pass %d: FusedPath did not invert XORAt", n, pass)
			}
			LayeredPath(dst, scratch, cipher, stages)
			if !bytes.Equal(dst, plain) {
				t.Fatalf("n=%d pass %d: LayeredPath did not invert XORAt", n, pass)
			}
		}
	}
}

func TestSwapStageIsInvolution(t *testing.T) {
	src := randBytes(256, 8)
	once := make([]byte, len(src))
	twice := make([]byte, len(src))
	FusedPath(once, src, []WordStage{SwapStage{}})
	FusedPath(twice, once, []WordStage{SwapStage{}})
	if !bytes.Equal(twice, src) {
		t.Error("double byte swap is not identity")
	}
	if bytes.Equal(once, src) {
		t.Error("swap did nothing")
	}
}

func TestLayeredPathZeroStages(t *testing.T) {
	src := randBytes(100, 9)
	dst := make([]byte, 100)
	LayeredPath(dst, make([]byte, 100), src, nil)
	if !bytes.Equal(dst, src) {
		t.Error("zero-stage layered path should copy")
	}
}

func TestStandardStagesDepths(t *testing.T) {
	for k := 1; k <= 5; k++ {
		stages, ck := StandardStages(k, 1)
		if len(stages) != k {
			t.Errorf("k=%d: %d stages", k, len(stages))
		}
		if (k >= 2) != (ck != nil) {
			t.Errorf("k=%d: checksum stage presence wrong", k)
		}
	}
}

func TestAccumulateOddSplits(t *testing.T) {
	// Splitting a buffer at arbitrary (odd) boundaries must give the
	// same checksum as one shot.
	data := randBytes(333, 10)
	want := checksum.Sum16(data)
	for _, cuts := range [][]int{{1}, {3, 7}, {1, 2, 3, 4, 5}, {100, 200, 300}, {333}} {
		var sum uint64
		odd := false
		prev := 0
		for _, c := range cuts {
			sum, odd = accumulateOdd(sum, odd, data[prev:c])
			prev = c
		}
		sum, odd = accumulateOdd(sum, odd, data[prev:])
		_ = odd
		if got := ^checksum.Fold(sum); got != want {
			t.Errorf("cuts %v: %#04x, want %#04x", cuts, got, want)
		}
	}
}

// --- Benchmarks (kernel-level; the paper-table benches live at repo root) ---

func benchBuf(n int) ([]byte, []byte) {
	return randBytes(n, 1), make([]byte, n)
}

func BenchmarkWordCopy4KB(b *testing.B) {
	src, dst := benchBuf(4096)
	b.SetBytes(4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		WordCopy(dst, src)
	}
}

func BenchmarkSeparateCopyChecksum4KB(b *testing.B) {
	src, dst := benchBuf(4096)
	b.SetBytes(4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SeparateCopyThenChecksum(dst, src)
	}
}

func BenchmarkFusedCopyChecksum4KB(b *testing.B) {
	src, dst := benchBuf(4096)
	b.SetBytes(4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		FinishSum(FusedCopySum(dst, src))
	}
}

func TestFusedCopySumFragments(t *testing.T) {
	// Accumulating per-fragment partial sums at even offsets and folding
	// once must equal the whole-buffer checksum.
	data := randBytes(4001, 21)
	want := checksum.Sum16(data)
	dst := make([]byte, len(data))
	bounds := []int{0, 8, 1000, 2048, 4001} // all even starts
	var sum uint64
	for i := 0; i+1 < len(bounds); i++ {
		lo, hi := bounds[i], bounds[i+1]
		sum += FusedCopySum(dst[lo:hi], data[lo:hi])
	}
	if got := FinishSum(sum); got != want {
		t.Errorf("fragmented sum %#04x, want %#04x", got, want)
	}
	if !bytes.Equal(dst, data) {
		t.Error("fragmented copy mismatch")
	}
}

func TestFusedDecryptCopySum(t *testing.T) {
	const key = 1234
	plain := randBytes(3333, 22)
	cipher := append([]byte(nil), plain...)
	scramble.XORAt(key, 0, cipher)

	dst := make([]byte, len(plain))
	// Fragments arrive out of order at 8-aligned offsets.
	bounds := []int{0, 800, 1600, 2400, 3333}
	var sum uint64
	for _, i := range []int{2, 0, 3, 1} {
		lo, hi := bounds[i], bounds[i+1]
		sum += FusedDecryptCopySum(dst[lo:hi], cipher[lo:hi], key, lo)
	}
	if !bytes.Equal(dst, plain) {
		t.Error("out-of-order fused decrypt mismatch")
	}
	if got, want := FinishSum(sum), checksum.Sum16(plain); got != want {
		t.Errorf("plaintext sum %#04x, want %#04x", got, want)
	}
}

func TestFusedDecryptCopySumUnalignedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on unaligned offset")
		}
	}()
	FusedDecryptCopySum(make([]byte, 8), make([]byte, 8), 1, 4)
}
