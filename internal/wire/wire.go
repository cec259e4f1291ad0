// Package wire owns every frame format in this repository: the five ALF
// frames (DATA, CTRL, HB, FB, CA) and the ordered transport's segment
// header. Endpoints (internal/core, internal/otp), intermediaries
// (internal/relay), the drop sniffer (internal/tracing) and the packet
// printer (cmd/alftrace) all encode and decode through it, so a layout
// is written down — and changed — in exactly one place. It is a leaf:
// it imports the standard library, checksum, and xcode (for SyntaxID
// only), which is what lets tracing use it without an import cycle.
//
// All integers are big-endian; every checksum is the 16-bit Internet
// checksum (internal/checksum).
//
// DATA fragment header (HeaderSize bytes, then FragLen payload bytes,
// then Flags.Trailer() bytes of authentication tag):
//
//	0      type (1=DATA)
//	1      stream id
//	2:10   ADU name
//	10:18  application tag
//	18     transfer syntax id
//	19     flags (FlagEnciphered, FlagParity, FlagCritical, FlagAEAD)
//	20:24  ADU total length
//	24:28  fragment offset within the ADU
//	28:30  fragment payload length
//	30:32  ADU checksum (of the whole plaintext ADU; zero under FlagAEAD)
//	32:34  header checksum
//
// Note what is absent: no byte-stream sequence number. Every field
// describes the ADU — the delivery information travels with the data,
// "not just visible at the application protocol layer but to all the
// protocol functions" (§7).
//
// CTRL, receiver to sender — cumulative release and whole-ADU recovery
// requests:
//
//	0      type (2=CTRL)
//	1      stream id
//	2:10   cumulative resolved name: every ADU named < this is settled
//	10:12  NACK count k
//	12:..  k * 8-byte ADU names
//	..+2   checksum over the whole message
//
// HB, sender to receiver — how far the stream extends, so a receiver
// can detect gaps even when the tail of the stream is lost entirely (a
// pure NACK scheme is blind to losses after the last arrival):
//
//	0      type (3=HB)
//	1      stream id
//	2:10   next unassigned ADU name (everything below exists)
//	10:12  checksum
//
// FB, receiver to sender — the periodic delivery report, the other half
// of the §3 rate-based control loop. The counters are cumulative since
// stream start, so a lost or reordered report only delays the sender's
// view and never corrupts it:
//
//	0      type (4=FB)
//	1      stream id
//	2:6    report sequence number
//	6:14   wire bytes accepted, cumulative (headers + payload, dups and
//	       late fragments included: what the network delivered)
//	14:22  verified ADU payload bytes delivered, cumulative (goodput)
//	22:24  checksum over the whole message
//
// CA, relay to upstream custodian — a store-and-forward relay's
// declaration that it holds complete copies of the named ADUs and
// accepts responsibility for delivering them downstream (DTN-style
// custody transfer):
//
//	0      type (5=CA)
//	1      stream id
//	2      relay id (which custodian is speaking; 0 = unspecified)
//	3      pad (keeps the frame even and the checksum slot aligned)
//	4:12   custody frontier: every ADU named < this is in custody
//	12:14  count k of individually-named ADUs >= the frontier
//	14:..  k * 8-byte ADU names
//	..+2   checksum over the whole message
//
// OTP segment header (OTPHeaderSize bytes, then the payload):
//
//	0      flags (OTPData, OTPAck)
//	1      connection id
//	2:6    sequence number (stream offset of first payload byte)
//	6:10   cumulative acknowledgement (next expected stream offset)
//	10:12  advertised receive window (in 16-byte units)
//	12:14  checksum over header+payload
//	14:16  payload length
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"repro/internal/checksum"
	"repro/internal/xcode"
)

// ErrBadHeader is wrapped by every ALF parse failure. Test with
// errors.Is.
var ErrBadHeader = errors.New("alf: malformed or corrupt header")

// HeaderSize is the DATA fragment header length.
const HeaderSize = 34

// TagSize is the authentication trailer that follows the payload of a
// FlagAEAD fragment (a Poly1305 tag).
const TagSize = 16

// Type is the first byte of an ALF frame.
type Type byte

// ALF frame types. DATA and HB flow sender to receiver; CTRL, FB and CA
// flow back.
const (
	TypeData Type = 1
	TypeCtrl Type = 2
	TypeHB   Type = 3
	TypeFB   Type = 4
	TypeCA   Type = 5
)

// TypeOf reports which ALF frame pkt claims to be, or 0 for an empty
// packet or a type byte no ALF frame uses. It validates nothing else:
// demultiplexers that share a node between frame kinds switch on it and
// leave verification to the frame's parser.
func TypeOf(pkt []byte) Type {
	if len(pkt) == 0 || pkt[0] < byte(TypeData) || pkt[0] > byte(TypeCA) {
		return 0
	}
	return Type(pkt[0])
}

// Flags is the DATA header's flag byte.
type Flags byte

const (
	// FlagEnciphered marks a payload under the scramble keystream.
	FlagEnciphered Flags = 1 << 0
	// FlagParity marks a forward-error-correction fragment: its payload
	// is the XOR of the data fragments whose offsets lie in
	// [FragOff, FragOff + FECGroup*fragPayload), each zero-padded to
	// the parity's FragLen. TotalLen and the ADU checksum describe the
	// ADU as usual so a parity fragment can also create the reassembly
	// state.
	FlagParity Flags = 1 << 1
	// FlagCritical marks a fragment of a Critical-priority ADU. The
	// class normally never travels on the wire (shedding is a
	// sender-side decision), but custody relays need it: a bounded
	// custody store sheds and evicts non-Critical ADUs first, and the
	// only place a relay can learn the class is the fragment header.
	FlagCritical Flags = 1 << 2
	// FlagAEAD marks an authenticated fragment: the payload is
	// ciphertext and a TagSize-byte tag follows it on the wire. The
	// ADU-checksum header field is zero — the tag is the integrity
	// pass. On a parity fragment the tag covers the parity blob itself
	// (the XOR of the group's ciphertexts), so a reconstructed fragment
	// is authenticated transitively by the parity tag and the surviving
	// fragments' tags.
	FlagAEAD Flags = 1 << 3

	// SuiteMask selects the bits that say which cipher suite produced
	// the payload; both ends of a stream must agree on them.
	SuiteMask = FlagEnciphered | FlagAEAD
)

// Trailer returns how many bytes follow the payload on the wire.
func (f Flags) Trailer() int {
	if f&FlagAEAD != 0 {
		return TagSize
	}
	return 0
}

// Header is the decoded DATA fragment header.
type Header struct {
	Stream   byte
	Name     uint64
	Tag      uint64
	Syntax   xcode.SyntaxID
	Flags    Flags
	TotalLen int
	FragOff  int
	FragLen  int
	ADUCheck uint16
}

// PutHeader encodes h into buf[:HeaderSize] and stamps the header
// checksum.
func PutHeader(buf []byte, h *Header) {
	buf[0] = byte(TypeData)
	buf[1] = h.Stream
	binary.BigEndian.PutUint64(buf[2:10], h.Name)
	binary.BigEndian.PutUint64(buf[10:18], h.Tag)
	buf[18] = byte(h.Syntax)
	buf[19] = byte(h.Flags)
	binary.BigEndian.PutUint32(buf[20:24], uint32(h.TotalLen))
	binary.BigEndian.PutUint32(buf[24:28], uint32(h.FragOff))
	binary.BigEndian.PutUint16(buf[28:30], uint16(h.FragLen))
	binary.BigEndian.PutUint16(buf[30:32], h.ADUCheck)
	// Summed from the fields, since loads of the bytes just stored would
	// wait for the stores: 16-bit words add up as the 32-bit halves do.
	binary.BigEndian.PutUint16(buf[32:34], ^checksum.Fold(uint64(TypeData)<<8+uint64(h.Stream)+
		h.Name>>32+h.Name&0xffffffff+h.Tag>>32+h.Tag&0xffffffff+uint64(h.Syntax)<<8+uint64(h.Flags)+
		uint64(uint32(h.TotalLen))+uint64(uint32(h.FragOff))+uint64(uint16(h.FragLen))+uint64(h.ADUCheck)))
}

// headerSum is Fold(Accumulate) of a DATA header, summed as the fixed
// shape it is: four little-endian words and a half-word in a Wide.
func headerSum(b []byte) uint16 {
	b = b[:HeaderSize:HeaderSize]
	acc := checksum.Wide{}.Add4(binary.LittleEndian.Uint64(b[0:]), binary.LittleEndian.Uint64(b[8:]),
		binary.LittleEndian.Uint64(b[16:]), binary.LittleEndian.Uint64(b[24:]))
	return uint16(acc.Add(uint64(binary.LittleEndian.Uint16(b[32:]))).Sum())
}

// ParseHeader decodes and verifies a DATA fragment header: checksum,
// type, that the packet holds the payload and trailer the header
// promises, that the fragment lies inside the ADU, and 8-byte offset
// alignment. The payload is pkt[HeaderSize:HeaderSize+FragLen] and the
// trailer the Flags.Trailer() bytes after it. It returns the header by
// value so the per-packet hot path does not allocate.
func ParseHeader(pkt []byte) (Header, error) {
	h, why := checkHeader(pkt)
	if why != "" {
		return Header{}, bad(why)
	}
	return h, nil
}

// bad builds a parse error. The validators below return their verdict
// as a reason string ("" = valid) instead of an error so that Peek,
// which runs on every traced packet and expects most candidates to
// fail, rejects without allocating.
func bad(why string) error { return fmt.Errorf("%w: %s", ErrBadHeader, why) }

func checkHeader(pkt []byte) (Header, string) {
	if len(pkt) < HeaderSize {
		return Header{}, "short packet"
	}
	if headerSum(pkt) != 0xffff {
		return Header{}, "header checksum"
	}
	if Type(pkt[0]) != TypeData {
		return Header{}, "not a DATA fragment"
	}
	h := Header{
		Stream:   pkt[1],
		Name:     binary.BigEndian.Uint64(pkt[2:10]),
		Tag:      binary.BigEndian.Uint64(pkt[10:18]),
		Syntax:   xcode.SyntaxID(pkt[18]),
		Flags:    Flags(pkt[19]),
		TotalLen: int(binary.BigEndian.Uint32(pkt[20:24])),
		FragOff:  int(binary.BigEndian.Uint32(pkt[24:28])),
		FragLen:  int(binary.BigEndian.Uint16(pkt[28:30])),
		ADUCheck: binary.BigEndian.Uint16(pkt[30:32]),
	}
	if len(pkt) < HeaderSize+h.FragLen+h.Flags.Trailer() {
		return Header{}, "fragment truncated"
	}
	if h.TotalLen < 0 || h.FragOff < 0 || h.FragOff+h.FragLen > h.TotalLen {
		return Header{}, "fragment outside its ADU"
	}
	if h.FragOff%8 != 0 {
		return Header{}, "unaligned fragment offset"
	}
	return h, ""
}

// Control is a decoded CTRL message.
type Control struct {
	Stream byte
	Cum    uint64
	Nacks  []uint64
}

// MaxNames bounds the name list of one CTRL or CA frame, to stay under
// typical MTUs.
const MaxNames = 64

// EncodeControl appends c's frame to buf and returns the result. A
// receiver appends to the emptied storage of the last frame it sent,
// behind any encapsulation prefix, so that acknowledging allocates
// nothing; that is safe because every send copies what it is handed.
func EncodeControl(buf []byte, c *Control) []byte {
	return encodeNames(buf, TypeCtrl, c.Stream, 0, c.Cum, c.Nacks)
}

// ParseControl decodes and verifies a CTRL message.
func ParseControl(pkt []byte) (Control, error) {
	if why := checkNames(pkt, TypeCtrl); why != "" {
		return Control{}, bad("control " + why)
	}
	return Control{Stream: pkt[1], Cum: binary.BigEndian.Uint64(pkt[2:10]), Nacks: names(pkt, TypeCtrl)}, nil
}

// CustodyAck is a decoded CA frame.
type CustodyAck struct {
	Stream byte
	Relay  byte
	// Cum is the custody frontier: every ADU named < Cum is held
	// downstream.
	Cum uint64
	// Names lists ADUs >= Cum taken into custody out of order.
	Names []uint64
}

// EncodeCustody encodes a custody acknowledgment for the wire.
func EncodeCustody(ca *CustodyAck) []byte {
	return encodeNames(nil, TypeCA, ca.Stream, ca.Relay, ca.Cum, ca.Names)
}

// ParseCustody decodes and verifies a custody acknowledgment.
func ParseCustody(pkt []byte) (CustodyAck, error) {
	if why := checkNames(pkt, TypeCA); why != "" {
		return CustodyAck{}, bad("custody " + why)
	}
	return CustodyAck{Stream: pkt[1], Relay: pkt[2], Cum: binary.BigEndian.Uint64(pkt[4:12]), Names: names(pkt, TypeCA)}, nil
}

// CTRL and CA share a shape — a frontier, a 16-bit count and that many
// 8-byte names, sealed by a trailing checksum — and differ in where the
// frontier starts: CA spends two more bytes on the relay id and a pad.
// frontierAt returns that offset; the count sits 8 bytes after it and
// the names 10.
func frontierAt(t Type) int {
	if t == TypeCA {
		return 4
	}
	return 2
}

func encodeNames(buf []byte, t Type, stream, relay byte, cum uint64, list []uint64) []byte {
	at := frontierAt(t)
	n := at + 10 + 8*len(list) + 2
	buf = slices.Grow(buf, n)[:len(buf)+n] // no temporary, even under -race
	msg := buf[len(buf)-n:]
	clear(msg)
	msg[0] = byte(t)
	msg[1] = stream
	if t == TypeCA {
		msg[2] = relay
	}
	binary.BigEndian.PutUint64(msg[at:], cum)
	binary.BigEndian.PutUint16(msg[at+8:], uint16(len(list)))
	for i, name := range list {
		binary.BigEndian.PutUint64(msg[at+10+8*i:], name)
	}
	binary.BigEndian.PutUint16(msg[len(msg)-2:], checksum.Sum16(msg))
	return buf
}

// checkNames verifies a CTRL or CA frame without decoding its names.
func checkNames(pkt []byte, t Type) string {
	at := frontierAt(t)
	if len(pkt) < at+12 || Type(pkt[0]) != t {
		return "frame short or mistyped"
	}
	if !checksum.Verify16(pkt) {
		return "checksum"
	}
	if n := int(binary.BigEndian.Uint16(pkt[at+8:])); len(pkt) != at+10+8*n+2 {
		return "length disagrees with its count"
	}
	return ""
}

// names decodes the name list of a frame checkNames accepted.
func names(pkt []byte, t Type) []uint64 {
	at := frontierAt(t)
	n := int(binary.BigEndian.Uint16(pkt[at+8:]))
	var list []uint64
	for i := 0; i < n; i++ {
		list = append(list, binary.BigEndian.Uint64(pkt[at+10+8*i:]))
	}
	return list
}

// HeartbeatSize is the length of an HB frame.
const HeartbeatSize = 12

// EncodeHeartbeat appends an HB frame to buf and returns the result.
func EncodeHeartbeat(buf []byte, stream byte, next uint64) []byte {
	buf = append(buf, make([]byte, HeartbeatSize)...)
	msg := buf[len(buf)-HeartbeatSize:]
	msg[0] = byte(TypeHB)
	msg[1] = stream
	binary.BigEndian.PutUint64(msg[2:10], next)
	binary.BigEndian.PutUint16(msg[10:12], checksum.Sum16(msg))
	return buf
}

// ParseHeartbeat decodes and verifies an HB frame.
func ParseHeartbeat(pkt []byte) (stream byte, next uint64, err error) {
	if !fixedFrame(pkt, TypeHB, HeartbeatSize) {
		return 0, 0, bad("heartbeat")
	}
	return pkt[1], binary.BigEndian.Uint64(pkt[2:10]), nil
}

// fixedFrame verifies a fixed-length, wholly checksummed frame.
func fixedFrame(pkt []byte, t Type, size int) bool {
	return len(pkt) == size && Type(pkt[0]) == t && checksum.Verify16(pkt)
}

// FeedbackSize is the length of an FB frame.
const FeedbackSize = 24

// EncodeFeedback appends the report's frame to buf, as EncodeControl
// does, and returns the result; the receiver reuses its last frame's
// storage, so the periodic report allocates nothing.
func EncodeFeedback(buf []byte, stream byte, seq uint32, wire, good uint64) []byte {
	buf = append(buf, make([]byte, FeedbackSize)...)
	msg := buf[len(buf)-FeedbackSize:]
	msg[0] = byte(TypeFB)
	msg[1] = stream
	binary.BigEndian.PutUint32(msg[2:6], seq)
	binary.BigEndian.PutUint64(msg[6:14], wire)
	binary.BigEndian.PutUint64(msg[14:22], good)
	binary.BigEndian.PutUint16(msg[22:24], checksum.Sum16(msg))
	return buf
}

// ParseFeedback decodes and verifies a feedback report. Values return
// by value so the per-report path does not allocate.
func ParseFeedback(pkt []byte) (stream byte, seq uint32, wire, good uint64, err error) {
	if !fixedFrame(pkt, TypeFB, FeedbackSize) {
		return 0, 0, 0, 0, bad("feedback")
	}
	return pkt[1], binary.BigEndian.Uint32(pkt[2:6]),
		binary.BigEndian.Uint64(pkt[6:14]), binary.BigEndian.Uint64(pkt[14:22]), nil
}

// OTPHeaderSize is the fixed OTP segment header length.
const OTPHeaderSize = 16

// OTP segment flags.
const (
	OTPData = 1 << 0
	OTPAck  = 1 << 1
)

// otpWindowUnit scales the 16-bit advertised-window field.
const otpWindowUnit = 16

// Errors from ParseOTP.
var (
	ErrOTPShort    = errors.New("otp: segment too short")
	ErrOTPChecksum = errors.New("otp: segment corrupt or truncated")
)

// OTPHeader is the decoded OTP segment header. Seq and Ack are the low
// 32 bits of stream offsets. Window is in bytes; the wire carries it
// rounded down to 16-byte units and saturates just under 1 MiB.
type OTPHeader struct {
	Flags  byte
	Conn   byte
	Seq    uint32
	Ack    uint32
	Window int
	Len    int // payload bytes, seg[OTPHeaderSize:OTPHeaderSize+Len]
}

// PutOTP stamps h into seg[:OTPHeaderSize] and the checksum over the
// whole of seg, whose payload must already be in place.
func PutOTP(seg []byte, h *OTPHeader) {
	seg[0] = h.Flags
	seg[1] = h.Conn
	binary.BigEndian.PutUint32(seg[2:6], h.Seq)
	binary.BigEndian.PutUint32(seg[6:10], h.Ack)
	binary.BigEndian.PutUint16(seg[10:12], uint16(min(h.Window/otpWindowUnit, 0xFFFF)))
	seg[12], seg[13] = 0, 0
	binary.BigEndian.PutUint16(seg[14:16], uint16(h.Len))
	binary.BigEndian.PutUint16(seg[12:14], checksum.Sum16(seg))
}

// ParseOTP decodes and verifies a segment. It returns ErrOTPShort when
// there is no header to read; on ErrOTPChecksum (bad checksum, or fewer
// payload bytes than the header promises) the returned header still
// carries the unverified fields, so a demultiplexer can tell a damaged
// segment of its own connection from one addressed elsewhere.
func ParseOTP(seg []byte) (OTPHeader, error) {
	if len(seg) < OTPHeaderSize {
		return OTPHeader{}, ErrOTPShort
	}
	h := OTPHeader{
		Flags:  seg[0],
		Conn:   seg[1],
		Seq:    binary.BigEndian.Uint32(seg[2:6]),
		Ack:    binary.BigEndian.Uint32(seg[6:10]),
		Window: int(binary.BigEndian.Uint16(seg[10:12])) * otpWindowUnit,
		Len:    int(binary.BigEndian.Uint16(seg[14:16])),
	}
	if !checksum.Verify16(seg) || len(seg) < OTPHeaderSize+h.Len {
		return h, ErrOTPChecksum
	}
	return h, nil
}
