package wire

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// Kind names what Peek recognized; traces print it as is.
type Kind string

// Frame kinds. KindNone means no format in this package validates.
const (
	KindNone    Kind = ""
	KindData    Kind = "alf-data"
	KindCtrl    Kind = "alf-ctrl"
	KindHB      Kind = "alf-hb"
	KindFB      Kind = "alf-fb"
	KindCA      Kind = "alf-ca"
	KindOTPData Kind = "otp-data"
	KindOTPAck  Kind = "otp-ack"
)

// Info is the identity Peek reads out of a validated frame.
type Info struct {
	Kind Kind
	// ID is the ALF stream id or the OTP connection id.
	ID byte
	// Name is the one name the frame is about: the ADU (DATA), the
	// declared extent (HB), the report sequence (FB) or the custody
	// frontier (CA). Zero for CTRL and OTP.
	Name uint64
	// Off and Len locate the payload: fragment offset and length within
	// the ADU (DATA), or stream sequence number and payload length
	// (OTP data). Zero otherwise.
	Off, Len int
}

// Peek classifies a packet of unknown provenance for observers that
// see every packet on a link and must say which ADU or stream range it
// carried without being told the protocol. A kind is reported only when
// that kind's strict parser accepts the packet and the packet is exactly
// as long as the frame says; Peek allocates nothing either way.
//
// ALF type bytes (1=DATA, 2=CTRL, 3=HB) collide with OTP flag values
// (1=DATA, 2=ACK, 3=DATA|ACK) at offset 0, so the first byte alone
// cannot classify a packet. Both formats carry an Internet checksum,
// but checksums alone can collide deterministically (an OTP data
// segment with a zero payload folds to the same sum over any prefix),
// which is why exact length is part of the test: ALF is tried first,
// then OTP. A rare misclassification mislabels one annotation and never
// touches protocol state.
func Peek(pkt []byte) Info {
	switch TypeOf(pkt) {
	case TypeData:
		if h, why := checkHeader(pkt); why == "" && len(pkt) == HeaderSize+h.FragLen+h.Flags.Trailer() {
			return Info{Kind: KindData, ID: h.Stream, Name: h.Name, Off: h.FragOff, Len: h.FragLen}
		}
	case TypeCtrl:
		if checkNames(pkt, TypeCtrl) == "" {
			return Info{Kind: KindCtrl, ID: pkt[1]}
		}
	case TypeHB:
		if fixedFrame(pkt, TypeHB, HeartbeatSize) {
			return Info{Kind: KindHB, ID: pkt[1], Name: binary.BigEndian.Uint64(pkt[2:10])}
		}
	case TypeFB:
		if fixedFrame(pkt, TypeFB, FeedbackSize) {
			return Info{Kind: KindFB, ID: pkt[1], Name: uint64(binary.BigEndian.Uint32(pkt[2:6]))}
		}
	case TypeCA:
		if checkNames(pkt, TypeCA) == "" {
			return Info{Kind: KindCA, ID: pkt[1], Name: binary.BigEndian.Uint64(pkt[4:12])}
		}
	}
	if h, err := ParseOTP(pkt); err == nil && len(pkt) == OTPHeaderSize+h.Len {
		switch {
		case h.Flags&OTPData != 0 && h.Len > 0:
			return Info{Kind: KindOTPData, ID: h.Conn, Off: int(h.Seq), Len: h.Len}
		case h.Flags&OTPAck != 0:
			return Info{Kind: KindOTPAck, ID: h.Conn}
		}
	}
	return Info{}
}

// Describe renders one ALF frame as a single line (no newline) for
// packet traces, through the same strict parsers the endpoints use: a
// frame they would reject is shown as damaged, not as fields that
// cannot be trusted. A DATA fragment's payload is not covered by the
// header checksum, so a fragment damaged only there still shows its
// header.
func Describe(pkt []byte) string {
	damaged := func(kind string) string {
		return fmt.Sprintf("alf %s: damaged or truncated (%d bytes)", kind, len(pkt))
	}
	switch TypeOf(pkt) {
	case TypeData:
		h, err := ParseHeader(pkt)
		if err != nil {
			return damaged("DATA")
		}
		kind := "DATA"
		if h.Flags&FlagParity != 0 {
			kind = "PARITY"
		}
		marks := ""
		if h.Flags&FlagEnciphered != 0 {
			marks += " enc"
		}
		if h.Flags&FlagAEAD != 0 {
			marks += " aead"
		}
		if h.Flags&FlagCritical != 0 {
			marks += " critical"
		}
		return fmt.Sprintf("alf %s stream=%d adu=%d tag=%#x frag=[%d:%d) of %d%s",
			kind, h.Stream, h.Name, h.Tag, h.FragOff, h.FragOff+h.FragLen, h.TotalLen, marks)
	case TypeCtrl:
		c, err := ParseControl(pkt)
		if err != nil {
			return damaged("CTRL")
		}
		return fmt.Sprintf("alf CTRL stream=%d cum=%d nacks=%d%s", c.Stream, c.Cum, len(c.Nacks), first8(c.Nacks))
	case TypeHB:
		stream, next, err := ParseHeartbeat(pkt)
		if err != nil {
			return damaged("HB")
		}
		return fmt.Sprintf("alf HB stream=%d next=%d", stream, next)
	case TypeFB:
		stream, seq, wire, good, err := ParseFeedback(pkt)
		if err != nil {
			return damaged("FB")
		}
		return fmt.Sprintf("alf FB stream=%d seq=%d wire=%d delivered=%d", stream, seq, wire, good)
	case TypeCA:
		ca, err := ParseCustody(pkt)
		if err != nil {
			return damaged("CA")
		}
		return fmt.Sprintf("alf CA stream=%d relay=%d cum=%d names=%d%s", ca.Stream, ca.Relay, ca.Cum, len(ca.Names), first8(ca.Names))
	}
	if len(pkt) == 0 {
		return "alf: empty"
	}
	// Hex, zero-padded: unknown type bytes are usually protocol
	// collisions or corruption, and those read naturally in hex
	// ("unknown type 0x41" is printable 'A', not "65").
	return fmt.Sprintf("alf: unknown type 0x%02X (%d bytes)", pkt[0], len(pkt))
}

// first8 renders the head of a name list as " [a b c …]", or nothing
// for an empty one.
func first8(list []uint64) string {
	if len(list) == 0 {
		return ""
	}
	if len(list) <= 8 {
		return fmt.Sprintf(" %d", list)
	}
	return strings.TrimSuffix(fmt.Sprintf(" %d", list[:8]), "]") + " …]"
}
