package xcode

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Raw is the "image"/"internal" transfer syntax: a one-byte kind, a
// four-byte big-endian byte count, and the value bytes with no
// per-element structure. It is the cheapest syntax — essentially a copy
// — and is what the paper says "most applications that attempt to
// achieve high performance today" use (§5).
type Raw struct{}

// ID implements Codec.
func (Raw) ID() SyntaxID { return SyntaxRaw }

// Name implements Codec.
func (Raw) Name() string { return "raw" }

const rawHeader = 5 // kind byte + uint32 payload length

func appendRawHeader(dst []byte, k Kind, n int) []byte {
	return append(dst, byte(k), byte(n>>24), byte(n>>16), byte(n>>8), byte(n))
}

// EncodeValue implements Codec.
func (r Raw) EncodeValue(dst []byte, v Value) ([]byte, error) {
	return r.encode(dst, v, 0)
}

func (r Raw) encode(dst []byte, v Value, depth int) ([]byte, error) {
	if depth > MaxDepth {
		return nil, fmt.Errorf("%w: depth %d", ErrDepth, depth)
	}
	switch v.Kind {
	case KindBytes:
		dst = appendRawHeader(dst, v.Kind, len(v.Bytes))
		return append(dst, v.Bytes...), nil
	case KindString:
		dst = appendRawHeader(dst, v.Kind, len(v.Str))
		return append(dst, v.Str...), nil
	case KindInt32:
		dst = appendRawHeader(dst, v.Kind, 4)
		return appendUint32(dst, uint32(int32(v.I64))), nil
	case KindInt64:
		dst = appendRawHeader(dst, v.Kind, 8)
		return appendUint64(dst, uint64(v.I64)), nil
	case KindInt32s:
		dst = appendRawHeader(dst, v.Kind, 4*len(v.Ints))
		for _, e := range v.Ints {
			dst = appendUint32(dst, uint32(e))
		}
		return dst, nil
	case KindSeq:
		// For sequences the 4-byte field carries the element count; the
		// elements follow, each self-delimiting.
		dst = appendRawHeader(dst, v.Kind, len(v.Seq))
		for i := range v.Seq {
			var err error
			dst, err = r.encode(dst, v.Seq[i], depth+1)
			if err != nil {
				return nil, err
			}
		}
		return dst, nil
	default:
		return nil, fmt.Errorf("%w: %v in raw", ErrKind, v.Kind)
	}
}

func decodePrefixed(src []byte, syntax string) (Kind, []byte, int, error) {
	if len(src) < rawHeader {
		return 0, nil, 0, fmt.Errorf("%w: %s header", ErrTruncated, syntax)
	}
	k := Kind(src[0])
	n := int(binary.BigEndian.Uint32(src[1:5]))
	if n < 0 || len(src) < rawHeader+n {
		return 0, nil, 0, fmt.Errorf("%w: %s payload of %d bytes", ErrTruncated, syntax, n)
	}
	return k, src[rawHeader : rawHeader+n], rawHeader + n, nil
}

func decodeFixedWidth(src []byte, syntax string) (Value, int, error) {
	k, body, total, err := decodePrefixed(src, syntax)
	if err != nil {
		return Value{}, 0, err
	}
	switch k {
	case KindBytes:
		out := make([]byte, len(body))
		copy(out, body)
		return BytesValue(out), total, nil
	case KindString:
		return StringValue(string(body)), total, nil
	case KindInt32:
		if len(body) != 4 {
			return Value{}, 0, fmt.Errorf("%w: %s int32 length %d", ErrBadValue, syntax, len(body))
		}
		return Int32Value(int32(binary.BigEndian.Uint32(body))), total, nil
	case KindInt64:
		if len(body) != 8 {
			return Value{}, 0, fmt.Errorf("%w: %s int64 length %d", ErrBadValue, syntax, len(body))
		}
		return Int64Value(int64(binary.BigEndian.Uint64(body))), total, nil
	case KindInt32s:
		if len(body)%4 != 0 {
			return Value{}, 0, fmt.Errorf("%w: %s int32 array length %d", ErrBadValue, syntax, len(body))
		}
		ints := make([]int32, len(body)/4)
		for i := range ints {
			ints[i] = int32(binary.BigEndian.Uint32(body[4*i:]))
		}
		return Int32sValue(ints), total, nil
	default:
		return Value{}, 0, fmt.Errorf("%w: %s kind %d", ErrBadValue, syntax, k)
	}
}

// DecodeValue implements Codec.
func (r Raw) DecodeValue(src []byte) (Value, int, error) {
	return r.decode(src, 0)
}

func (r Raw) decode(src []byte, depth int) (Value, int, error) {
	if depth > MaxDepth {
		return Value{}, 0, fmt.Errorf("%w: depth %d", ErrDepth, depth)
	}
	if len(src) >= rawHeader && Kind(src[0]) == KindSeq {
		return decodeSeq(src, depth, "raw", func(s []byte, d int) (Value, int, error) {
			return r.decode(s, d)
		})
	}
	return decodeFixedWidth(src, "raw")
}

// decodeSeq parses a sequence header (count in the 4-byte field) and
// decodes count self-delimiting elements with the codec's own decoder.
func decodeSeq(src []byte, depth int, syntax string, dec func([]byte, int) (Value, int, error)) (Value, int, error) {
	if depth > MaxDepth {
		return Value{}, 0, fmt.Errorf("%w: depth %d", ErrDepth, depth)
	}
	n := int(binary.BigEndian.Uint32(src[1:5]))
	if n < 0 || n > len(src) { // each element needs at least 1 byte
		return Value{}, 0, fmt.Errorf("%w: %s seq of %d", ErrTruncated, syntax, n)
	}
	seq := make([]Value, 0, n)
	off := rawHeader
	for i := 0; i < n; i++ {
		v, used, err := dec(src[off:], depth+1)
		if err != nil {
			return Value{}, 0, fmt.Errorf("%s seq element %d: %w", syntax, i, err)
		}
		seq = append(seq, v)
		off += used
	}
	return Value{Kind: KindSeq, Seq: seq}, off, nil
}

// LWTS is the light-weight transfer syntax in the spirit of Huitema &
// Doghri's "high speed approach for the OSI presentation protocol" [8]:
// self-describing like BER but with fixed-width elements and a single
// count instead of per-element tag/length pairs. Integers travel as
// variable-width-free 4-byte two's complement, so encoding an integer
// array is one bounds check and one store per element.
//
// The wire format differs from Raw only in that integer arrays carry an
// element count (not a byte count) and values are checked for range at
// encode time; it exists as a distinct SyntaxID so the E3/E5 experiments
// can compare "tuned standard" against both BER and raw image mode.
type LWTS struct{}

// ID implements Codec.
func (LWTS) ID() SyntaxID { return SyntaxLWTS }

// Name implements Codec.
func (LWTS) Name() string { return "lwts" }

// EncodeValue implements Codec.
func (l LWTS) EncodeValue(dst []byte, v Value) ([]byte, error) {
	return l.encode(dst, v, 0)
}

func (l LWTS) encode(dst []byte, v Value, depth int) ([]byte, error) {
	if depth > MaxDepth {
		return nil, fmt.Errorf("%w: depth %d", ErrDepth, depth)
	}
	if v.Kind == KindInt32 && (v.I64 < math.MinInt32 || v.I64 > math.MaxInt32) {
		return nil, fmt.Errorf("%w: %d as LWTS int32", ErrOverflow, v.I64)
	}
	if v.Kind == KindInt32s {
		dst = append(dst, byte(v.Kind))
		dst = appendUint32(dst, uint32(len(v.Ints)))
		for _, e := range v.Ints {
			dst = appendUint32(dst, uint32(e))
		}
		return dst, nil
	}
	if v.Kind == KindSeq {
		dst = appendRawHeader(dst, v.Kind, len(v.Seq))
		for i := range v.Seq {
			var err error
			dst, err = l.encode(dst, v.Seq[i], depth+1)
			if err != nil {
				return nil, err
			}
		}
		return dst, nil
	}
	return Raw{}.EncodeValue(dst, v)
}

// DecodeValue implements Codec.
func (l LWTS) DecodeValue(src []byte) (Value, int, error) {
	return l.decode(src, 0)
}

func (l LWTS) decode(src []byte, depth int) (Value, int, error) {
	if depth > MaxDepth {
		return Value{}, 0, fmt.Errorf("%w: depth %d", ErrDepth, depth)
	}
	if len(src) >= rawHeader && Kind(src[0]) == KindSeq {
		return decodeSeq(src, depth, "lwts", func(s []byte, d int) (Value, int, error) {
			return l.decode(s, d)
		})
	}
	if len(src) >= rawHeader && Kind(src[0]) == KindInt32s {
		n := int(binary.BigEndian.Uint32(src[1:5]))
		if n < 0 || len(src) < rawHeader+4*n {
			return Value{}, 0, fmt.Errorf("%w: LWTS array of %d", ErrTruncated, n)
		}
		ints := make([]int32, n)
		body := src[rawHeader:]
		for i := range ints {
			ints[i] = int32(binary.BigEndian.Uint32(body[4*i:]))
		}
		return Int32sValue(ints), rawHeader + 4*n, nil
	}
	return decodeFixedWidth(src, "lwts")
}
