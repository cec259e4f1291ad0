// Package xcode is the presentation layer: conversion between
// application ("local syntax") values and the transfer syntaxes carried
// on the wire (paper §5).
//
// Four transfer syntaxes are provided:
//
//   - Raw: the "image"/"internal" format — bytes are moved unconverted.
//   - BER: a from-scratch subset of ASN.1 Basic Encoding Rules (INTEGER,
//     OCTET STRING, SEQUENCE), the expensive conversion of the paper's §4
//     experiments.
//   - XDR: a subset of Sun XDR (4-byte alignment, big-endian).
//   - LWTS: a light-weight transfer syntax in the spirit of Huitema &
//     Doghri [8] — fixed-width, count-prefixed, no per-element TLV.
//
// Each syntax's layout is stated once, by its encoder: an ALF sender
// learns where a converted ADU lands in the receiver's terms from the
// length of the encoding (paper §5, "the sender must be able to specify
// the disposition of the ADU in terms meaningful to the receiver").
package xcode

import (
	"bytes"
	"errors"
	"fmt"
)

// SyntaxID names a transfer syntax on the wire. Zero is invalid so that
// an unset header field is detectable.
type SyntaxID uint8

const (
	// SyntaxRaw is the identity transfer syntax ("image" mode).
	SyntaxRaw SyntaxID = 1
	// SyntaxBER is the ASN.1 Basic Encoding Rules subset.
	SyntaxBER SyntaxID = 2
	// SyntaxXDR is the Sun XDR subset.
	SyntaxXDR SyntaxID = 3
	// SyntaxLWTS is the light-weight transfer syntax.
	SyntaxLWTS SyntaxID = 4
)

// MaxDepth bounds nested sequence recursion in every codec, so hostile
// encodings cannot exhaust the stack.
const MaxDepth = 32

// Errors reported by decoders. All are wrapped with context; test with
// errors.Is.
var (
	ErrTruncated  = errors.New("xcode: truncated encoding")
	ErrBadTag     = errors.New("xcode: unexpected tag")
	ErrBadLength  = errors.New("xcode: invalid length")
	ErrBadValue   = errors.New("xcode: malformed value")
	ErrUnknownID  = errors.New("xcode: unknown syntax id")
	ErrKind       = errors.New("xcode: value kind not supported by syntax")
	ErrOverflow   = errors.New("xcode: value exceeds representable range")
	ErrDepth      = errors.New("xcode: nesting too deep")
	ErrBadIndef   = errors.New("xcode: indefinite lengths not supported")
	ErrNotMinimal = errors.New("xcode: non-minimal integer encoding")
)

// Kind discriminates the application-level value types the presentation
// layer converts.
type Kind uint8

const (
	// KindBytes is an opaque byte string (ASN.1 OCTET STRING, XDR opaque).
	KindBytes Kind = iota + 1
	// KindInt32 is a signed 32-bit integer.
	KindInt32
	// KindInt64 is a signed 64-bit integer.
	KindInt64
	// KindString is a UTF-8 text string.
	KindString
	// KindInt32s is an array of signed 32-bit integers (the paper's
	// "array of integers" workload).
	KindInt32s
	// KindSeq is an ordered sequence of nested values — the structured
	// records RPC arguments actually are (§5: presentation is "to or
	// from various language-level variables").
	KindSeq
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case KindBytes:
		return "bytes"
	case KindInt32:
		return "int32"
	case KindInt64:
		return "int64"
	case KindString:
		return "string"
	case KindInt32s:
		return "int32s"
	case KindSeq:
		return "seq"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a tagged union of the application value types. Exactly the
// field selected by Kind is meaningful.
type Value struct {
	Kind  Kind
	Bytes []byte
	I64   int64 // used by KindInt32 and KindInt64
	Str   string
	Ints  []int32
	Seq   []Value
}

// BytesValue wraps b as a Value.
func BytesValue(b []byte) Value { return Value{Kind: KindBytes, Bytes: b} }

// Int32Value wraps v as a Value.
func Int32Value(v int32) Value { return Value{Kind: KindInt32, I64: int64(v)} }

// Int64Value wraps v as a Value.
func Int64Value(v int64) Value { return Value{Kind: KindInt64, I64: v} }

// StringValue wraps s as a Value.
func StringValue(s string) Value { return Value{Kind: KindString, Str: s} }

// Int32sValue wraps vs as a Value.
func Int32sValue(vs []int32) Value { return Value{Kind: KindInt32s, Ints: vs} }

// SeqValue wraps vs as a nested sequence Value.
func SeqValue(vs ...Value) Value { return Value{Kind: KindSeq, Seq: vs} }

// Equal reports deep equality of two values. The two integer kinds
// compare by numeric value regardless of width, because syntaxes that
// carry a single INTEGER type (BER) decode to the narrowest kind that
// fits.
func (v Value) Equal(o Value) bool {
	if v.Kind == KindInt32 || v.Kind == KindInt64 {
		return (o.Kind == KindInt32 || o.Kind == KindInt64) && v.I64 == o.I64
	}
	if v.Kind == KindInt32s && o.Kind == KindSeq {
		return seqEqualsInts(o.Seq, v.Ints)
	}
	if v.Kind == KindSeq && o.Kind == KindInt32s {
		return seqEqualsInts(v.Seq, o.Ints)
	}
	if v.Kind != o.Kind {
		return false
	}
	switch v.Kind {
	case KindBytes:
		return bytes.Equal(v.Bytes, o.Bytes)
	case KindString:
		return v.Str == o.Str
	case KindInt32s:
		if len(v.Ints) != len(o.Ints) {
			return false
		}
		for i := range v.Ints {
			if v.Ints[i] != o.Ints[i] {
				return false
			}
		}
		return true
	case KindSeq:
		if len(v.Seq) != len(o.Seq) {
			return false
		}
		for i := range v.Seq {
			if !v.Seq[i].Equal(o.Seq[i]) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// seqEqualsInts compares a sequence of numeric values with an integer
// array — needed because BER cannot distinguish "SEQUENCE of INTEGER
// written as KindSeq" from KindInt32s, and decodes the homogeneous form
// to the compact kind.
func seqEqualsInts(seq []Value, ints []int32) bool {
	if len(seq) != len(ints) {
		return false
	}
	for i, v := range seq {
		if (v.Kind != KindInt32 && v.Kind != KindInt64) || v.I64 != int64(ints[i]) {
			return false
		}
	}
	return true
}

// Codec converts values to and from one transfer syntax. Encoders append
// to dst and return the extended slice; decoders return the value, the
// number of bytes consumed, and an error. The encoding's length is the
// value's size in the syntax. All implementations are stateless and
// safe for concurrent use.
type Codec interface {
	// ID returns the wire identifier of the syntax.
	ID() SyntaxID
	// Name returns a short human-readable name.
	Name() string
	// EncodeValue appends the encoding of v to dst.
	EncodeValue(dst []byte, v Value) ([]byte, error)
	// DecodeValue decodes one value from the front of src.
	DecodeValue(src []byte) (Value, int, error)
}

// ByID returns the codec registered for id.
func ByID(id SyntaxID) (Codec, error) {
	switch id {
	case SyntaxRaw:
		return Raw{}, nil
	case SyntaxBER:
		return BER{}, nil
	case SyntaxXDR:
		return XDR{}, nil
	case SyntaxLWTS:
		return LWTS{}, nil
	default:
		return nil, fmt.Errorf("%w: %d", ErrUnknownID, id)
	}
}

// Codecs returns all registered codecs, for table-driven tests and the
// experiment harness.
func Codecs() []Codec {
	return []Codec{Raw{}, BER{}, XDR{}, LWTS{}}
}
