package wire

import "testing"

// FuzzPeek drives the classifier, both printers and every strict parser
// with arbitrary bytes. Nothing may panic; a printer never returns an
// empty line; and whenever Peek names a kind, that kind's strict parser
// accepts the packet and agrees with Peek on every field both report.
// Seeds cover every type byte, valid and truncated, so the corpus
// starts on the real parse paths and not only the early-exit guards.
func FuzzPeek(f *testing.F) {
	var fb [FeedbackSize]byte
	f.Add([]byte{})
	f.Add([]byte{1, 9, 0, 0, 0, 0, 0, 0, 0, 7})             // ALF data, truncated
	f.Add([]byte{2, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0}) // ALF ctrl shape
	f.Add([]byte{3, 0, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0})       // ALF hb shape
	f.Add([]byte{0x41, 0x41, 0x41, 0x41})                   // unknown type
	f.Add([]byte{0xFF})                                     // unknown type, minimal
	f.Add(make([]byte, 64))                                 // zeros
	f.Add(data(Header{Stream: 1, Name: 2, Tag: 3, TotalLen: 64, FragOff: 8, FragLen: 16}))
	f.Add(data(Header{Flags: FlagAEAD | FlagParity | FlagCritical, TotalLen: 64, FragLen: 24}))
	f.Add(EncodeControl(nil, &Control{Stream: 1, Cum: 5, Nacks: seq(3)}))
	f.Add(EncodeHeartbeat(nil, 1, 99))
	f.Add(EncodeFeedback(fb[:0], 1, 2, 3, 4))
	f.Add(EncodeCustody(&CustodyAck{Stream: 3, Relay: 7, Cum: 42, Names: seq(2)}))
	f.Add(otp(OTPHeader{Flags: OTPData | OTPAck, Conn: 2, Seq: 100, Len: 50}))
	f.Add(otp(OTPHeader{Flags: OTPAck, Conn: 2, Ack: 100}))
	f.Fuzz(func(t *testing.T, pkt []byte) {
		if Describe(pkt) == "" {
			t.Errorf("empty description of %x", pkt)
		}
		p := Peek(pkt)
		switch p.Kind {
		case KindNone:
			if p != (Info{}) {
				t.Errorf("unrecognized packet with identity %+v", p)
			}
		case KindData:
			h, err := ParseHeader(pkt)
			if err != nil || p.ID != h.Stream || p.Name != h.Name || p.Off != h.FragOff || p.Len != h.FragLen {
				t.Errorf("Peek %+v, ParseHeader %+v, %v", p, h, err)
			}
		case KindCtrl:
			c, err := ParseControl(pkt)
			if err != nil || p.ID != c.Stream {
				t.Errorf("Peek %+v, ParseControl %+v, %v", p, c, err)
			}
		case KindHB:
			stream, next, err := ParseHeartbeat(pkt)
			if err != nil || p.ID != stream || p.Name != next {
				t.Errorf("Peek %+v, ParseHeartbeat %d %d %v", p, stream, next, err)
			}
		case KindFB:
			stream, n, _, _, err := ParseFeedback(pkt)
			if err != nil || p.ID != stream || p.Name != uint64(n) {
				t.Errorf("Peek %+v, ParseFeedback %d %d %v", p, stream, n, err)
			}
		case KindCA:
			ca, err := ParseCustody(pkt)
			if err != nil || p.ID != ca.Stream || p.Name != ca.Cum {
				t.Errorf("Peek %+v, ParseCustody %+v, %v", p, ca, err)
			}
		case KindOTPData, KindOTPAck:
			h, err := ParseOTP(pkt)
			if err != nil || p.ID != h.Conn || (p.Kind == KindOTPData && (p.Off != int(h.Seq) || p.Len != h.Len)) {
				t.Errorf("Peek %+v, ParseOTP %+v, %v", p, h, err)
			}
		default:
			t.Errorf("Peek returned kind %q", p.Kind)
		}
		// The strict parsers must hold up on their own too.
		ParseHeader(pkt)
		ParseControl(pkt)
		ParseHeartbeat(pkt)
		ParseFeedback(pkt)
		ParseCustody(pkt)
		ParseOTP(pkt)
	})
}
