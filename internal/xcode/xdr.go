package xcode

import (
	"encoding/binary"
	"fmt"
	"math"
)

// XDR discriminant values (a self-describing XDR union over the value
// kinds; classic XDR is schema-driven, so the discriminant stands in for
// the schema here).
const (
	xdrBytes  uint32 = 1
	xdrInt32  uint32 = 2
	xdrInt64  uint32 = 3
	xdrString uint32 = 4
	xdrInt32s uint32 = 5
	xdrSeq    uint32 = 6
)

// XDR implements a subset of Sun XDR (RFC 1014): everything is built
// from 4-byte big-endian units; opaque data and strings are padded to a
// multiple of 4.
type XDR struct{}

// ID implements Codec.
func (XDR) ID() SyntaxID { return SyntaxXDR }

// Name implements Codec.
func (XDR) Name() string { return "xdr" }

func xdrPad(n int) int { return (4 - n%4) % 4 }

func appendUint32(dst []byte, v uint32) []byte {
	return append(dst, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func appendUint64(dst []byte, v uint64) []byte {
	return append(dst, byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// EncodeValue implements Codec.
func (x XDR) EncodeValue(dst []byte, v Value) ([]byte, error) {
	return x.encode(dst, v, 0)
}

func (x XDR) encode(dst []byte, v Value, depth int) ([]byte, error) {
	if depth > MaxDepth {
		return nil, fmt.Errorf("%w: depth %d", ErrDepth, depth)
	}
	switch v.Kind {
	case KindBytes:
		dst = appendUint32(dst, xdrBytes)
		dst = appendUint32(dst, uint32(len(v.Bytes)))
		dst = append(dst, v.Bytes...)
		for i := 0; i < xdrPad(len(v.Bytes)); i++ {
			dst = append(dst, 0)
		}
		return dst, nil
	case KindString:
		dst = appendUint32(dst, xdrString)
		dst = appendUint32(dst, uint32(len(v.Str)))
		dst = append(dst, v.Str...)
		for i := 0; i < xdrPad(len(v.Str)); i++ {
			dst = append(dst, 0)
		}
		return dst, nil
	case KindInt32:
		if v.I64 < math.MinInt32 || v.I64 > math.MaxInt32 {
			return nil, fmt.Errorf("%w: %d as XDR int", ErrOverflow, v.I64)
		}
		dst = appendUint32(dst, xdrInt32)
		return appendUint32(dst, uint32(int32(v.I64))), nil
	case KindInt64:
		dst = appendUint32(dst, xdrInt64)
		return appendUint64(dst, uint64(v.I64)), nil
	case KindInt32s:
		dst = appendUint32(dst, xdrInt32s)
		dst = appendUint32(dst, uint32(len(v.Ints)))
		for _, e := range v.Ints {
			dst = appendUint32(dst, uint32(e))
		}
		return dst, nil
	case KindSeq:
		dst = appendUint32(dst, xdrSeq)
		dst = appendUint32(dst, uint32(len(v.Seq)))
		for i := range v.Seq {
			var err error
			dst, err = x.encode(dst, v.Seq[i], depth+1)
			if err != nil {
				return nil, err
			}
		}
		return dst, nil
	default:
		return nil, fmt.Errorf("%w: %v in XDR", ErrKind, v.Kind)
	}
}

// DecodeValue implements Codec.
func (x XDR) DecodeValue(src []byte) (Value, int, error) {
	return x.decode(src, 0)
}

func (x XDR) decode(src []byte, depth int) (Value, int, error) {
	if depth > MaxDepth {
		return Value{}, 0, fmt.Errorf("%w: depth %d", ErrDepth, depth)
	}
	if len(src) < 4 {
		return Value{}, 0, fmt.Errorf("%w: XDR discriminant", ErrTruncated)
	}
	disc := binary.BigEndian.Uint32(src)
	body := src[4:]
	switch disc {
	case xdrInt32:
		if len(body) < 4 {
			return Value{}, 0, fmt.Errorf("%w: XDR int", ErrTruncated)
		}
		return Int32Value(int32(binary.BigEndian.Uint32(body))), 8, nil
	case xdrInt64:
		if len(body) < 8 {
			return Value{}, 0, fmt.Errorf("%w: XDR hyper", ErrTruncated)
		}
		return Int64Value(int64(binary.BigEndian.Uint64(body))), 12, nil
	case xdrBytes, xdrString:
		if len(body) < 4 {
			return Value{}, 0, fmt.Errorf("%w: XDR length", ErrTruncated)
		}
		n := binary.BigEndian.Uint32(body)
		if n > uint32(len(body)-4) {
			return Value{}, 0, fmt.Errorf("%w: XDR opaque of %d bytes", ErrTruncated, n)
		}
		pad := xdrPad(int(n))
		total := 8 + int(n) + pad
		if len(src) < total {
			return Value{}, 0, fmt.Errorf("%w: XDR padding", ErrTruncated)
		}
		for _, p := range body[4+n : 4+int(n)+pad] {
			if p != 0 {
				return Value{}, 0, fmt.Errorf("%w: nonzero XDR pad", ErrBadValue)
			}
		}
		if disc == xdrString {
			return StringValue(string(body[4 : 4+n])), total, nil
		}
		out := make([]byte, n)
		copy(out, body[4:4+n])
		return BytesValue(out), total, nil
	case xdrInt32s:
		if len(body) < 4 {
			return Value{}, 0, fmt.Errorf("%w: XDR array count", ErrTruncated)
		}
		n := binary.BigEndian.Uint32(body)
		if uint64(n)*4 > uint64(len(body)-4) {
			return Value{}, 0, fmt.Errorf("%w: XDR array of %d", ErrTruncated, n)
		}
		ints := make([]int32, n)
		off := 4
		for i := range ints {
			ints[i] = int32(binary.BigEndian.Uint32(body[off:]))
			off += 4
		}
		return Int32sValue(ints), 4 + off, nil
	case xdrSeq:
		if len(body) < 4 {
			return Value{}, 0, fmt.Errorf("%w: XDR seq count", ErrTruncated)
		}
		n := binary.BigEndian.Uint32(body)
		if n > uint32(len(body)) { // each element needs >= 4 bytes
			return Value{}, 0, fmt.Errorf("%w: XDR seq of %d", ErrTruncated, n)
		}
		seq := make([]Value, 0, n)
		off := 8
		for i := uint32(0); i < n; i++ {
			v, used, err := x.decode(src[off:], depth+1)
			if err != nil {
				return Value{}, 0, fmt.Errorf("seq element %d: %w", i, err)
			}
			seq = append(seq, v)
			off += used
		}
		return Value{Kind: KindSeq, Seq: seq}, off, nil
	default:
		return Value{}, 0, fmt.Errorf("%w: XDR discriminant %d", ErrBadValue, disc)
	}
}
