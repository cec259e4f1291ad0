package xcode

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func sampleValues() []Value {
	return []Value{
		BytesValue(nil),
		BytesValue([]byte{0x00}),
		BytesValue(bytes.Repeat([]byte{0xAB}, 300)), // forces BER long-form length
		StringValue(""),
		StringValue("hello, 世界"),
		Int32Value(0),
		Int32Value(1),
		Int32Value(-1),
		Int32Value(127),
		Int32Value(128),
		Int32Value(-128),
		Int32Value(-129),
		Int32Value(math.MaxInt32),
		Int32Value(math.MinInt32),
		Int64Value(math.MaxInt64),
		Int64Value(math.MinInt64),
		Int64Value(1 << 40),
		Int32sValue(nil),
		Int32sValue([]int32{0}),
		Int32sValue([]int32{1, -1, 127, -128, 32767, -32768, math.MaxInt32, math.MinInt32}),
	}
}

// roundtrip encodes v with c and decodes it back, failing on bytes
// left over.
func roundtrip(c Codec, v Value) (Value, error) {
	enc, err := c.EncodeValue(nil, v)
	if err != nil {
		return Value{}, err
	}
	out, n, err := c.DecodeValue(enc)
	if err != nil {
		return Value{}, err
	}
	if n != len(enc) {
		return Value{}, fmt.Errorf("decoded %d of %d bytes", n, len(enc))
	}
	return out, nil
}

func TestRoundtripAllCodecs(t *testing.T) {
	for _, c := range Codecs() {
		for i, v := range sampleValues() {
			got, err := roundtrip(c, v)
			if err != nil {
				t.Errorf("%s value %d (%v): %v", c.Name(), i, v.Kind, err)
				continue
			}
			if !got.Equal(v) {
				t.Errorf("%s value %d: roundtrip mismatch: got %+v want %+v", c.Name(), i, got, v)
			}
		}
	}
}

func TestEncodeAppends(t *testing.T) {
	// Encoders must append, not clobber.
	for _, c := range Codecs() {
		prefix := []byte{0xDE, 0xAD}
		out, err := c.EncodeValue(append([]byte(nil), prefix...), Int32Value(42))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(out, prefix) {
			t.Errorf("%s: encode clobbered prefix", c.Name())
		}
	}
}

func TestDecodeConsumesExactly(t *testing.T) {
	// Decoding with trailing garbage must consume only the value.
	for _, c := range Codecs() {
		enc, err := c.EncodeValue(nil, Int32sValue([]int32{5, 6, 7}))
		if err != nil {
			t.Fatal(err)
		}
		n := len(enc)
		enc = append(enc, 0xFF, 0xFF, 0xFF)
		_, got, err := c.DecodeValue(enc)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		if got != n {
			t.Errorf("%s: consumed %d, want %d", c.Name(), got, n)
		}
	}
}

func TestDecodeTruncated(t *testing.T) {
	// Every prefix of a valid encoding must fail cleanly (no panic) with
	// a truncation-class error, for every codec.
	for _, c := range Codecs() {
		for _, v := range sampleValues() {
			enc, err := c.EncodeValue(nil, v)
			if err != nil {
				t.Fatal(err)
			}
			for cut := 0; cut < len(enc); cut++ {
				if _, _, err := c.DecodeValue(enc[:cut]); err == nil {
					// A prefix may itself decode as a shorter valid value
					// only if it consumes exactly cut bytes — never true
					// for a strict prefix of a single value encoding in
					// these formats, except the degenerate empty cases.
					t.Errorf("%s: prefix %d/%d of %v decoded without error",
						c.Name(), cut, len(enc), v.Kind)
				}
			}
		}
	}
}

func TestPrefixedHugeCountTruncated(t *testing.T) {
	// A count with its top bit set is negative as a 32-bit int, and
	// four times a quarter of the range wraps; neither may get past the
	// length checks (GOARCH=386 runs this with a 32-bit int).
	for _, c := range []Codec{Raw{}, LWTS{}} {
		for _, k := range []Kind{KindBytes, KindString, KindInt32, KindInt64, KindInt32s, KindSeq} {
			for _, n := range []uint32{0x40000000, 0x40000001, 0x80000000, 0xFFFFFFFF} {
				src := appendUint32([]byte{byte(k)}, n)
				src = append(src, make([]byte, 16)...)
				if _, _, err := c.DecodeValue(src); !errors.Is(err, ErrTruncated) {
					t.Errorf("%s %v count %#x: err %v, want ErrTruncated", c.Name(), k, n, err)
				}
			}
		}
	}
}

func TestBERKnownEncodings(t *testing.T) {
	cases := []struct {
		v    Value
		want []byte
	}{
		{Int32Value(0), []byte{0x02, 0x01, 0x00}},
		{Int32Value(127), []byte{0x02, 0x01, 0x7F}},
		{Int32Value(128), []byte{0x02, 0x02, 0x00, 0x80}},
		{Int32Value(256), []byte{0x02, 0x02, 0x01, 0x00}},
		{Int32Value(-128), []byte{0x02, 0x01, 0x80}},
		{Int32Value(-129), []byte{0x02, 0x02, 0xFF, 0x7F}},
		{BytesValue([]byte{0x01, 0x02}), []byte{0x04, 0x02, 0x01, 0x02}},
		{Int32sValue([]int32{1, 2}), []byte{0x30, 0x06, 0x02, 0x01, 0x01, 0x02, 0x01, 0x02}},
	}
	for _, cse := range cases {
		got, err := BER{}.EncodeValue(nil, cse.v)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, cse.want) {
			t.Errorf("BER(%+v) = % x, want % x", cse.v, got, cse.want)
		}
	}
}

func TestBERLongFormLength(t *testing.T) {
	// 300-byte OCTET STRING: tag, 0x82, 0x01, 0x2C, content.
	enc, err := BER{}.EncodeValue(nil, BytesValue(make([]byte, 300)))
	if err != nil {
		t.Fatal(err)
	}
	if enc[0] != TagOctetString || enc[1] != 0x82 || enc[2] != 0x01 || enc[3] != 0x2C {
		t.Errorf("long-form header = % x", enc[:4])
	}
	if len(enc) != 304 {
		t.Errorf("len = %d, want 304", len(enc))
	}
}

func TestBERRejectsNonMinimalInteger(t *testing.T) {
	// 0x00 0x7F is a redundant leading zero.
	_, _, err := ParseBERInt([]byte{0x02, 0x02, 0x00, 0x7F})
	if !errors.Is(err, ErrNotMinimal) {
		t.Errorf("err = %v, want ErrNotMinimal", err)
	}
	_, _, err = ParseBERInt([]byte{0x02, 0x02, 0xFF, 0x80})
	if !errors.Is(err, ErrNotMinimal) {
		t.Errorf("err = %v, want ErrNotMinimal", err)
	}
}

func TestBERRejectsIndefiniteLength(t *testing.T) {
	_, _, _, err := ParseBERHeader([]byte{0x30, 0x80, 0x00, 0x00})
	if !errors.Is(err, ErrBadIndef) {
		t.Errorf("err = %v, want ErrBadIndef", err)
	}
}

func TestBERRejectsEmptyAndOversizeInteger(t *testing.T) {
	if _, _, err := ParseBERInt([]byte{0x02, 0x00}); !errors.Is(err, ErrBadValue) {
		t.Errorf("empty INTEGER err = %v", err)
	}
	huge := append([]byte{0x02, 0x09}, make([]byte, 9)...)
	if _, _, err := ParseBERInt(huge); !errors.Is(err, ErrOverflow) {
		t.Errorf("9-octet INTEGER err = %v", err)
	}
}

func TestBERRejectsWrongTag(t *testing.T) {
	if _, _, err := ParseBERInt([]byte{0x04, 0x01, 0x00}); !errors.Is(err, ErrBadTag) {
		t.Errorf("err = %v, want ErrBadTag", err)
	}
	if _, _, err := (BER{}).DecodeValue([]byte{0x5F, 0x01, 0x00}); !errors.Is(err, ErrBadTag) {
		t.Errorf("unknown tag err = %v, want ErrBadTag", err)
	}
}

func TestBERIntProperty(t *testing.T) {
	f := func(v int64) bool {
		enc := AppendBERInt(nil, v)
		if len(enc) != BERIntSize(v) {
			return false
		}
		got, n, err := ParseBERInt(enc)
		return err == nil && n == len(enc) && got == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestBERIntMinimality(t *testing.T) {
	// Content length must be the minimal two's-complement width.
	cases := []struct {
		v    int64
		want int
	}{
		{0, 1}, {127, 1}, {-128, 1}, {128, 2}, {-129, 2},
		{32767, 2}, {32768, 3}, {-32768, 2}, {-32769, 3},
		{math.MaxInt64, 8}, {math.MinInt64, 8},
	}
	for _, c := range cases {
		if got := berIntContentLen(c.v); got != c.want {
			t.Errorf("berIntContentLen(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestXDRAlignment(t *testing.T) {
	// 5-byte opaque: 4 disc + 4 len + 5 data + 3 pad = 16.
	enc, err := XDR{}.EncodeValue(nil, BytesValue([]byte{1, 2, 3, 4, 5}))
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) != 16 {
		t.Errorf("len = %d, want 16", len(enc))
	}
	if len(enc)%4 != 0 {
		t.Error("XDR encoding not 4-aligned")
	}
}

func TestXDRRejectsNonzeroPad(t *testing.T) {
	enc, _ := XDR{}.EncodeValue(nil, BytesValue([]byte{1}))
	enc[len(enc)-1] = 0xFF
	if _, _, err := (XDR{}).DecodeValue(enc); !errors.Is(err, ErrBadValue) {
		t.Errorf("err = %v, want ErrBadValue", err)
	}
}

func TestXDRInt32RangeCheck(t *testing.T) {
	_, err := XDR{}.EncodeValue(nil, Value{Kind: KindInt32, I64: math.MaxInt32 + 1})
	if !errors.Is(err, ErrOverflow) {
		t.Errorf("err = %v, want ErrOverflow", err)
	}
}

func TestByID(t *testing.T) {
	for _, c := range Codecs() {
		got, err := ByID(c.ID())
		if err != nil {
			t.Fatal(err)
		}
		if got.Name() != c.Name() {
			t.Errorf("ByID(%d) = %s, want %s", c.ID(), got.Name(), c.Name())
		}
	}
	if _, err := ByID(0); !errors.Is(err, ErrUnknownID) {
		t.Errorf("ByID(0) err = %v", err)
	}
	if _, err := ByID(200); !errors.Is(err, ErrUnknownID) {
		t.Errorf("ByID(200) err = %v", err)
	}
}

func TestValueEqualNumericWidths(t *testing.T) {
	if !Int32Value(7).Equal(Int64Value(7)) {
		t.Error("int32(7) != int64(7)")
	}
	if Int32Value(7).Equal(Int64Value(8)) {
		t.Error("int32(7) == int64(8)")
	}
	if Int32Value(7).Equal(StringValue("7")) {
		t.Error("int == string")
	}
	if !BytesValue(nil).Equal(BytesValue([]byte{})) {
		t.Error("nil bytes != empty bytes")
	}
}

func TestKindString(t *testing.T) {
	names := map[Kind]string{
		KindBytes: "bytes", KindInt32: "int32", KindInt64: "int64",
		KindString: "string", KindInt32s: "int32s", Kind(99): "Kind(99)",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestUnsupportedKindErrors(t *testing.T) {
	bad := Value{Kind: Kind(77)}
	for _, c := range Codecs() {
		if _, err := c.EncodeValue(nil, bad); err == nil {
			t.Errorf("%s: encoding bad kind succeeded", c.Name())
		}
	}
}

func TestMessageRoundtrip(t *testing.T) {
	msg := Message{
		Int32Value(42),
		StringValue("proc"),
		BytesValue([]byte{1, 2, 3}),
		Int32sValue([]int32{-5, 5}),
	}
	for _, c := range Codecs() {
		enc, err := EncodeMessage(c, nil, msg)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		got, gotCodec, n, err := DecodeMessage(enc)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		if n != len(enc) {
			t.Errorf("%s: consumed %d of %d", c.Name(), n, len(enc))
		}
		if gotCodec.ID() != c.ID() {
			t.Errorf("%s: decoded codec %s", c.Name(), gotCodec.Name())
		}
		if len(got) != len(msg) {
			t.Fatalf("%s: %d values, want %d", c.Name(), len(got), len(msg))
		}
		for i := range msg {
			if !got[i].Equal(msg[i]) {
				t.Errorf("%s value %d: %+v != %+v", c.Name(), i, got[i], msg[i])
			}
		}
	}
}

func TestMessageEmptyRoundtrip(t *testing.T) {
	enc, err := EncodeMessage(BER{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, _, n, err := DecodeMessage(enc)
	if err != nil || n != 3 || len(got) != 0 {
		t.Errorf("empty message: got %v, n=%d, err=%v", got, n, err)
	}
}

func TestMessageDecodeErrors(t *testing.T) {
	if _, _, _, err := DecodeMessage(nil); !errors.Is(err, ErrTruncated) {
		t.Errorf("nil message err = %v", err)
	}
	if _, _, _, err := DecodeMessage([]byte{0, 0, 0}); !errors.Is(err, ErrUnknownID) {
		t.Errorf("bad syntax err = %v", err)
	}
	// Claims one value but has none.
	if _, _, _, err := DecodeMessage([]byte{byte(SyntaxBER), 0, 1}); err == nil {
		t.Error("short message decoded")
	}
}

func TestCrossCodecSizesOrdered(t *testing.T) {
	// For the canonical integer-array workload, BER must be the largest
	// encoding (per-element TLV) and raw/LWTS the smallest — this is the
	// size side of the E3 experiment.
	ints := make([]int32, 1000)
	for i := range ints {
		ints[i] = int32(i * 3141)
	}
	v := Int32sValue(ints)
	size := map[string]int{}
	for _, c := range Codecs() {
		enc, err := c.EncodeValue(nil, v)
		if err != nil {
			t.Fatal(err)
		}
		size[c.Name()] = len(enc)
	}
	if size["ber"] <= size["raw"] {
		t.Errorf("BER (%d) should exceed raw (%d) for int arrays", size["ber"], size["raw"])
	}
	if size["xdr"] < size["raw"] {
		t.Errorf("XDR (%d) should be >= raw (%d)", size["xdr"], size["raw"])
	}
}

func TestDecodeValueFuzzNoPanics(t *testing.T) {
	f := func(data []byte) bool {
		for _, c := range Codecs() {
			c.DecodeValue(data) // must not panic
		}
		DecodeMessage(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestRoundtripPropertyInt32s(t *testing.T) {
	f := func(ints []int32) bool {
		v := Int32sValue(ints)
		for _, c := range Codecs() {
			got, err := roundtrip(c, v)
			if err != nil || !got.Equal(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRoundtripPropertyBytes(t *testing.T) {
	f := func(b []byte) bool {
		v := BytesValue(b)
		for _, c := range Codecs() {
			got, err := roundtrip(c, v)
			if err != nil || !got.Equal(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSeqRoundtripAllCodecs(t *testing.T) {
	// A realistic RPC-shaped record: mixed scalar kinds plus nesting.
	rec := SeqValue(
		StringValue("open"),
		Int32Value(42),
		BytesValue([]byte{9, 8, 7}),
		SeqValue(
			Int64Value(1<<40),
			StringValue("nested"),
		),
		Int32sValue([]int32{-1, 0, 1}),
	)
	for _, c := range Codecs() {
		got, err := roundtrip(c, rec)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		if !got.Equal(rec) {
			t.Errorf("%s: nested roundtrip mismatch: %+v", c.Name(), got)
		}
	}
}

func TestSeqEmptyAndHomogeneous(t *testing.T) {
	for _, c := range Codecs() {
		// Empty sequence.
		got, err := roundtrip(c, SeqValue())
		if err != nil {
			t.Fatalf("%s empty: %v", c.Name(), err)
		}
		if !got.Equal(SeqValue()) {
			t.Errorf("%s: empty seq mismatch: %+v", c.Name(), got)
		}
		// A seq of all-int32 values: BER legitimately decodes this as
		// KindInt32s; Equal treats the forms as equal.
		homo := SeqValue(Int32Value(1), Int32Value(2), Int32Value(3))
		got, err = roundtrip(c, homo)
		if err != nil {
			t.Fatalf("%s homo: %v", c.Name(), err)
		}
		if !got.Equal(homo) || !homo.Equal(got) {
			t.Errorf("%s: homogeneous seq mismatch: %+v", c.Name(), got)
		}
	}
}

func TestSeqDepthBombRejected(t *testing.T) {
	// Nesting deeper than MaxDepth must be refused at encode time...
	deep := Int32Value(1)
	for i := 0; i < MaxDepth+2; i++ {
		deep = SeqValue(deep)
	}
	for _, c := range Codecs() {
		if _, err := c.EncodeValue(nil, deep); !errors.Is(err, ErrDepth) {
			t.Errorf("%s: encode depth bomb err = %v", c.Name(), err)
		}
	}
	// ...and crafted wire nesting must be refused at decode time. Build
	// a legal depth-(MaxDepth) value, then wrap its encoding manually
	// (twice: BER's homogeneous-integer fast path legitimately absorbs
	// the innermost SEQUENCE-of-INTEGER level without recursing).
	ok := Int32Value(1)
	for i := 0; i < MaxDepth; i++ {
		ok = SeqValue(ok)
	}
	for _, c := range Codecs() {
		enc, err := c.EncodeValue(nil, ok)
		if err != nil {
			t.Fatalf("%s: legal depth refused: %v", c.Name(), err)
		}
		wrapped := enc
		for w := 0; w < 2; w++ {
			switch c.(type) {
			case BER:
				wrapped = append(AppendBERHeader(nil, TagSequence, len(wrapped)), wrapped...)
			case XDR:
				hdr := appendUint32(nil, 6) // xdrSeq
				hdr = appendUint32(hdr, 1)
				wrapped = append(hdr, wrapped...)
			default:
				wrapped = append(appendRawHeader(nil, KindSeq, 1), wrapped...)
			}
		}
		if _, _, err := c.DecodeValue(wrapped); !errors.Is(err, ErrDepth) {
			t.Errorf("%s: decode depth bomb err = %v", c.Name(), err)
		}
	}
}

func TestSeqFuzzNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		for _, c := range Codecs() {
			c.DecodeValue(data)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestSeqInMessages(t *testing.T) {
	msg := Message{
		SeqValue(StringValue("a"), SeqValue(Int32Value(1))),
		Int32Value(2),
	}
	for _, c := range Codecs() {
		enc, err := EncodeMessage(c, nil, msg)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		got, _, n, err := DecodeMessage(enc)
		if err != nil || n != len(enc) {
			t.Fatalf("%s: decode %v (n=%d)", c.Name(), err, n)
		}
		if len(got) != 2 || !got[0].Equal(msg[0]) {
			t.Errorf("%s: %+v", c.Name(), got)
		}
	}
}
