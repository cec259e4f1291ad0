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

// EncodeValue implements Codec.
func (Raw) EncodeValue(dst []byte, v Value) ([]byte, error) { return prefixed(false).encode(dst, v, 0) }

// DecodeValue implements Codec.
func (Raw) DecodeValue(src []byte) (Value, int, error) { return prefixed(false).decode(src, 0) }

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
func (LWTS) EncodeValue(dst []byte, v Value) ([]byte, error) { return prefixed(true).encode(dst, v, 0) }

// DecodeValue implements Codec.
func (LWTS) DecodeValue(src []byte) (Value, int, error) { return prefixed(true).decode(src, 0) }

const rawHeader = 5 // kind byte + uint32 payload length

func appendRawHeader(dst []byte, k Kind, n int) []byte {
	return append(dst, byte(k), byte(n>>24), byte(n>>16), byte(n>>8), byte(n))
}

// prefixed is the syntax Raw and LWTS share: each value a kind byte and
// a 4-byte count ahead of its bytes, a sequence's count its number of
// elements. true is LWTS, whose int32 arrays count elements rather than
// bytes and whose int32s are range-checked when encoded.
type prefixed bool

func (lwts prefixed) name() string {
	if lwts {
		return "lwts"
	}
	return "raw"
}

func (lwts prefixed) encode(dst []byte, v Value, depth int) ([]byte, error) {
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
		if lwts && (v.I64 < math.MinInt32 || v.I64 > math.MaxInt32) {
			return nil, fmt.Errorf("%w: %d as LWTS int32", ErrOverflow, v.I64)
		}
		dst = appendRawHeader(dst, v.Kind, 4)
		return appendUint32(dst, uint32(int32(v.I64))), nil
	case KindInt64:
		dst = appendRawHeader(dst, v.Kind, 8)
		return appendUint64(dst, uint64(v.I64)), nil
	case KindInt32s:
		n := 4 * len(v.Ints)
		if lwts {
			n = len(v.Ints)
		}
		dst = appendRawHeader(dst, v.Kind, n)
		for _, e := range v.Ints {
			dst = appendUint32(dst, uint32(e))
		}
		return dst, nil
	case KindSeq:
		dst = appendRawHeader(dst, v.Kind, len(v.Seq))
		for i := range v.Seq {
			var err error
			if dst, err = lwts.encode(dst, v.Seq[i], depth+1); err != nil {
				return nil, err
			}
		}
		return dst, nil
	default:
		return nil, fmt.Errorf("%w: %v in raw", ErrKind, v.Kind)
	}
}

func (lwts prefixed) decode(src []byte, depth int) (Value, int, error) {
	if depth > MaxDepth {
		return Value{}, 0, fmt.Errorf("%w: depth %d", ErrDepth, depth)
	}
	syntax := lwts.name()
	if len(src) < rawHeader {
		return Value{}, 0, fmt.Errorf("%w: %s header", ErrTruncated, syntax)
	}
	// n < 0 where int is 32 bits wide and the count's top bit is set.
	k, n := Kind(src[0]), int(binary.BigEndian.Uint32(src[1:5]))
	if k == KindSeq {
		if n < 0 || n > len(src) { // each element needs at least 1 byte
			return Value{}, 0, fmt.Errorf("%w: %s seq of %d", ErrTruncated, syntax, n)
		}
		seq := make([]Value, 0, n)
		off := rawHeader
		for i := 0; i < n; i++ {
			v, used, err := lwts.decode(src[off:], depth+1)
			if err != nil {
				return Value{}, 0, fmt.Errorf("%s seq element %d: %w", syntax, i, err)
			}
			seq = append(seq, v)
			off += used
		}
		return Value{Kind: KindSeq, Seq: seq}, off, nil
	}
	unit := 1
	if lwts && k == KindInt32s {
		unit = 4
	}
	if n < 0 || n > (len(src)-rawHeader)/unit { // checked before n*unit can overflow
		return Value{}, 0, fmt.Errorf("%w: %s payload of %d units of %d bytes", ErrTruncated, syntax, n, unit)
	}
	n *= unit
	body, total := src[rawHeader:rawHeader+n], rawHeader+n
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
