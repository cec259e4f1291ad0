package xcode

import (
	"fmt"
	"math"
)

// ASN.1 BER universal tags used by this subset.
const (
	TagInteger     = 0x02
	TagOctetString = 0x04
	TagUTF8String  = 0x0C
	TagSequence    = 0x30 // constructed
)

// BER implements the ASN.1 Basic Encoding Rules subset: INTEGER,
// OCTET STRING, UTF8String, and SEQUENCE OF INTEGER (for KindInt32s).
// Definite lengths only; integers are minimal two's complement.
type BER struct{}

// ID implements Codec.
func (BER) ID() SyntaxID { return SyntaxBER }

// Name implements Codec.
func (BER) Name() string { return "ber" }

// berIntContentLen returns the number of content octets of a minimal
// two's-complement INTEGER encoding of v.
func berIntContentLen(v int64) int {
	// Strip redundant leading octets: an octet is redundant when it is
	// 0x00 followed by a clear top bit, or 0xFF followed by a set one.
	n := 8
	for n > 1 {
		top := byte(v >> uint(8*(n-1)))
		next := byte(v >> uint(8*(n-2)))
		if (top == 0x00 && next&0x80 == 0) || (top == 0xFF && next&0x80 != 0) {
			n--
			continue
		}
		break
	}
	return n
}

// berLenLen returns the number of octets the length field occupies for a
// content length n (short form below 128, minimal long form otherwise).
func berLenLen(n int) int {
	switch {
	case n < 0x80:
		return 1
	case n <= 0xFF:
		return 2
	case n <= 0xFFFF:
		return 3
	case n <= 0xFFFFFF:
		return 4
	default:
		return 5
	}
}

// AppendBERHeader appends a tag and definite length to dst.
func AppendBERHeader(dst []byte, tag byte, length int) []byte {
	dst = append(dst, tag)
	switch {
	case length < 0x80:
		return append(dst, byte(length))
	case length <= 0xFF:
		return append(dst, 0x81, byte(length))
	case length <= 0xFFFF:
		return append(dst, 0x82, byte(length>>8), byte(length))
	case length <= 0xFFFFFF:
		return append(dst, 0x83, byte(length>>16), byte(length>>8), byte(length))
	default:
		return append(dst, 0x84, byte(length>>24), byte(length>>16), byte(length>>8), byte(length))
	}
}

// AppendBERInt appends a complete INTEGER TLV encoding v.
func AppendBERInt(dst []byte, v int64) []byte {
	n := berIntContentLen(v)
	dst = append(dst, TagInteger, byte(n))
	for i := n - 1; i >= 0; i-- {
		dst = append(dst, byte(v>>uint(8*i)))
	}
	return dst
}

// BERIntSize returns the full TLV size of an INTEGER encoding v.
func BERIntSize(v int64) int { return 2 + berIntContentLen(v) }

// AppendBERInt32s appends vs as a SEQUENCE OF INTEGER — BER's
// KindInt32s encoding, and the plain (unfused) presentation conversion
// that §4's E3/E5 experiments time.
func AppendBERInt32s(dst []byte, vs []int32) []byte {
	content := 0
	for _, v := range vs {
		content += BERIntSize(int64(v))
	}
	dst = AppendBERHeader(dst, TagSequence, content)
	for _, v := range vs {
		dst = AppendBERInt(dst, int64(v))
	}
	return dst
}

// ParseBERHeader parses a tag and definite length from the front of src,
// returning the tag, the content length, and the header size.
func ParseBERHeader(src []byte) (tag byte, length, hdr int, err error) {
	if len(src) < 2 {
		return 0, 0, 0, fmt.Errorf("%w: header needs 2 bytes, have %d", ErrTruncated, len(src))
	}
	tag = src[0]
	b := src[1]
	if b < 0x80 {
		return tag, int(b), 2, nil
	}
	if b == 0x80 {
		return 0, 0, 0, ErrBadIndef
	}
	n := int(b & 0x7F)
	if n > 4 {
		return 0, 0, 0, fmt.Errorf("%w: %d length octets", ErrBadLength, n)
	}
	if len(src) < 2+n {
		return 0, 0, 0, fmt.Errorf("%w: long-form length", ErrTruncated)
	}
	length = 0
	for i := 0; i < n; i++ {
		length = length<<8 | int(src[2+i])
	}
	// Where int has 32 bits, four octets can make a length that is
	// negative, or one whose sum with the header is: a caller's
	// hdr+length bound would wrap.
	if length < 0 || length > math.MaxInt-(2+n) {
		return 0, 0, 0, fmt.Errorf("%w: %d does not fit an int with the header", ErrBadLength, length)
	}
	return tag, length, 2 + n, nil
}

// ParseBERInt decodes one INTEGER TLV from the front of src, returning
// the value and total bytes consumed.
func ParseBERInt(src []byte) (int64, int, error) {
	tag, length, hdr, err := ParseBERHeader(src)
	if err != nil {
		return 0, 0, err
	}
	if tag != TagInteger {
		return 0, 0, fmt.Errorf("%w: got %#02x, want INTEGER", ErrBadTag, tag)
	}
	if length == 0 {
		return 0, 0, fmt.Errorf("%w: empty INTEGER", ErrBadValue)
	}
	if length > 8 {
		return 0, 0, fmt.Errorf("%w: INTEGER with %d content octets", ErrOverflow, length)
	}
	if len(src) < hdr+length {
		return 0, 0, fmt.Errorf("%w: INTEGER content", ErrTruncated)
	}
	content := src[hdr : hdr+length]
	if length >= 2 {
		if (content[0] == 0x00 && content[1]&0x80 == 0) ||
			(content[0] == 0xFF && content[1]&0x80 != 0) {
			return 0, 0, ErrNotMinimal
		}
	}
	v := int64(int8(content[0])) // sign-extend
	for _, b := range content[1:] {
		v = v<<8 | int64(b)
	}
	return v, hdr + length, nil
}

// EncodeValue implements Codec.
func (b BER) EncodeValue(dst []byte, v Value) ([]byte, error) {
	return b.encode(dst, v, 0)
}

func (b BER) encode(dst []byte, v Value, depth int) ([]byte, error) {
	if depth > MaxDepth {
		return nil, fmt.Errorf("%w: depth %d", ErrDepth, depth)
	}
	switch v.Kind {
	case KindBytes:
		dst = AppendBERHeader(dst, TagOctetString, len(v.Bytes))
		return append(dst, v.Bytes...), nil
	case KindString:
		dst = AppendBERHeader(dst, TagUTF8String, len(v.Str))
		return append(dst, v.Str...), nil
	case KindInt32, KindInt64:
		return AppendBERInt(dst, v.I64), nil
	case KindInt32s:
		return AppendBERInt32s(dst, v.Ints), nil
	case KindSeq:
		content := 0
		for i := range v.Seq {
			n, err := b.size(v.Seq[i], depth+1)
			if err != nil {
				return nil, err
			}
			content += n
		}
		dst = AppendBERHeader(dst, TagSequence, content)
		for i := range v.Seq {
			var err error
			dst, err = b.encode(dst, v.Seq[i], depth+1)
			if err != nil {
				return nil, err
			}
		}
		return dst, nil
	default:
		return nil, fmt.Errorf("%w: %v in BER", ErrKind, v.Kind)
	}
}

// size is the length encode will produce for v: a definite-length
// SEQUENCE header needs its content's length before the content.
func (b BER) size(v Value, depth int) (int, error) {
	if depth > MaxDepth {
		return 0, fmt.Errorf("%w: depth %d", ErrDepth, depth)
	}
	switch v.Kind {
	case KindBytes:
		return 1 + berLenLen(len(v.Bytes)) + len(v.Bytes), nil
	case KindString:
		return 1 + berLenLen(len(v.Str)) + len(v.Str), nil
	case KindInt32, KindInt64:
		return BERIntSize(v.I64), nil
	case KindInt32s:
		content := 0
		for _, x := range v.Ints {
			content += BERIntSize(int64(x))
		}
		return 1 + berLenLen(content) + content, nil
	case KindSeq:
		content := 0
		for i := range v.Seq {
			n, err := b.size(v.Seq[i], depth+1)
			if err != nil {
				return 0, err
			}
			content += n
		}
		return 1 + berLenLen(content) + content, nil
	default:
		return 0, fmt.Errorf("%w: %v in BER", ErrKind, v.Kind)
	}
}

// DecodeValue implements Codec.
func (b BER) DecodeValue(src []byte) (Value, int, error) {
	return b.decode(src, 0)
}

func (b BER) decode(src []byte, depth int) (Value, int, error) {
	if depth > MaxDepth {
		return Value{}, 0, fmt.Errorf("%w: depth %d", ErrDepth, depth)
	}
	tag, length, hdr, err := ParseBERHeader(src)
	if err != nil {
		return Value{}, 0, err
	}
	if len(src) < hdr+length {
		return Value{}, 0, fmt.Errorf("%w: content (%d of %d bytes)", ErrTruncated, len(src)-hdr, length)
	}
	content := src[hdr : hdr+length]
	total := hdr + length
	switch tag {
	case TagOctetString:
		out := make([]byte, length)
		copy(out, content)
		return BytesValue(out), total, nil
	case TagUTF8String:
		return StringValue(string(content)), total, nil
	case TagInteger:
		v, _, err := ParseBERInt(src)
		if err != nil {
			return Value{}, 0, err
		}
		if v >= math.MinInt32 && v <= math.MaxInt32 {
			return Int32Value(int32(v)), total, nil
		}
		return Int64Value(v), total, nil
	case TagSequence:
		// A SEQUENCE whose elements are all int32-ranged INTEGERs decodes
		// to the compact KindInt32s (the paper's integer-array workload);
		// anything else decodes recursively to KindSeq.
		ints, ok := tryInt32Sequence(content)
		if ok {
			return Int32sValue(ints), total, nil
		}
		var seq []Value
		for off := 0; off < len(content); {
			v, n, err := b.decode(content[off:], depth+1)
			if err != nil {
				return Value{}, 0, fmt.Errorf("sequence element %d: %w", len(seq), err)
			}
			seq = append(seq, v)
			off += n
		}
		return Value{Kind: KindSeq, Seq: seq}, total, nil
	default:
		return Value{}, 0, fmt.Errorf("%w: %#02x", ErrBadTag, tag)
	}
}

// tryInt32Sequence parses SEQUENCE content as a homogeneous array of
// int32-ranged INTEGERs, reporting whether that interpretation holds.
func tryInt32Sequence(content []byte) ([]int32, bool) {
	var ints []int32
	for off := 0; off < len(content); {
		v, n, err := ParseBERInt(content[off:])
		if err != nil || v < math.MinInt32 || v > math.MaxInt32 {
			return nil, false
		}
		ints = append(ints, int32(v))
		off += n
	}
	return ints, true
}
