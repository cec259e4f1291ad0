package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/checksum"
	"repro/internal/xcode"
)

func seq(n int) []uint64 {
	var s []uint64
	for i := 0; i < n; i++ {
		s = append(s, uint64(i)<<33|uint64(i))
	}
	return s
}

// data builds a valid DATA fragment around h with a zero payload and
// trailer.
func data(h Header) []byte {
	pkt := make([]byte, HeaderSize+h.FragLen+h.Flags.Trailer())
	PutHeader(pkt, &h)
	return pkt
}

func otp(h OTPHeader) []byte {
	seg := make([]byte, OTPHeaderSize+h.Len)
	PutOTP(seg, &h)
	return seg
}

// topLen is the longest ADU the boundary cases put on the wire: the
// length field's top bit where int has 64 bits, and where it has 32 the
// largest int a fragment offset (a multiple of 8) can end at.
const topLen = min(1<<31, math.MaxInt&^7)

// TestRoundTripBoundaries: Parse(Put(x)) == x for every frame type at
// the sizes where a length field or a count is at an edge.
func TestRoundTripBoundaries(t *testing.T) {
	for _, h := range []Header{
		{},
		{Stream: 9, Name: 1 << 40, Tag: ^uint64(0), Syntax: xcode.SyntaxXDR, Flags: FlagEnciphered,
			TotalLen: 1 << 20, FragOff: 4096, FragLen: 1024, ADUCheck: 0xBEEF},
		{Flags: FlagAEAD | FlagCritical, TotalLen: 0, FragLen: 0},
		{Flags: FlagAEAD | FlagParity, TotalLen: topLen, FragOff: topLen - 0xFFF8, FragLen: 0xFFF8},
		{Flags: FlagParity, TotalLen: 0xFFF8, FragLen: 0xFFF8},
	} {
		pkt := data(h)
		if want := HeaderSize + h.FragLen + h.Flags.Trailer(); len(pkt) != want {
			t.Fatalf("frame of %+v is %d bytes, want %d", h, len(pkt), want)
		}
		got, err := ParseHeader(pkt)
		if err != nil || got != h {
			t.Errorf("DATA round trip: %+v, %v; want %+v", got, err, h)
		}
		// A trailer the header promises must be on the wire.
		if h.Flags.Trailer() > 0 {
			if _, err := ParseHeader(pkt[:len(pkt)-1]); !errors.Is(err, ErrBadHeader) {
				t.Errorf("fragment missing a trailer byte parsed: %v", err)
			}
		}
	}
	// The length field's top bit set: where int has 32 bits that is no
	// length, and the header is refused rather than read as a negative.
	pkt := data(Header{})
	binary.BigEndian.PutUint32(pkt[20:24], 1<<31)
	pkt[32], pkt[33] = 0, 0
	binary.BigEndian.PutUint16(pkt[32:34], checksum.Sum16(pkt[:HeaderSize]))
	const wide = math.MaxInt >= 1<<31
	if h, err := ParseHeader(pkt); (err == nil) != wide || wide && uint64(h.TotalLen) != 1<<31 {
		t.Errorf("header with length 1<<31: %+v, %v", h, err)
	}
	for _, n := range []int{0, 1, MaxNames} {
		c := Control{Stream: 3, Cum: 1 << 50, Nacks: seq(n)}
		got, err := ParseControl(EncodeControl(nil, &c))
		if err != nil || !reflect.DeepEqual(got, c) {
			t.Errorf("CTRL round trip with %d nacks: %+v, %v", n, got, err)
		}
		ca := CustodyAck{Stream: 3, Relay: 7, Cum: 42, Names: seq(n)}
		pkt := EncodeCustody(&ca)
		if len(pkt)%2 != 0 {
			t.Errorf("CA frame with %d names is %d bytes: odd, so its checksum slot is unaligned", n, len(pkt))
		}
		gotCA, err := ParseCustody(pkt)
		if err != nil || !reflect.DeepEqual(gotCA, ca) {
			t.Errorf("CA round trip with %d names: %+v, %v", n, gotCA, err)
		}
	}
	if stream, next, err := ParseHeartbeat(EncodeHeartbeat(nil, 7, ^uint64(0))); err != nil || stream != 7 || next != ^uint64(0) {
		t.Errorf("HB round trip: %d %d %v", stream, next, err)
	}
	var fb [FeedbackSize]byte
	if stream, n, w, g, err := ParseFeedback(EncodeFeedback(fb[:0], 7, ^uint32(0), 1<<40, 12345)); err != nil ||
		stream != 7 || n != ^uint32(0) || w != 1<<40 || g != 12345 {
		t.Errorf("FB round trip: %d %d %d %d %v", stream, n, w, g, err)
	}
	// The window travels in 16-byte units: rounded down, saturating.
	for window, want := range map[int]int{0: 0, 15: 0, 31: 16, 64 << 10: 64 << 10, 1 << 30: 0xFFFF * 16} {
		if got, err := ParseOTP(otp(OTPHeader{Flags: OTPAck, Window: window})); err != nil || got.Window != want {
			t.Errorf("window %d crossed the wire as %d (%v), want %d", window, got.Window, err, want)
		}
	}
	for _, h := range []OTPHeader{
		{Flags: OTPAck, Conn: 4, Ack: 1 << 31, Window: 0xFFFF * 16},
		{Flags: OTPData | OTPAck, Conn: 4, Seq: ^uint32(0), Ack: 7, Window: 16, Len: 1000},
	} {
		got, err := ParseOTP(otp(h))
		if err != nil || got != h {
			t.Errorf("OTP round trip: %+v, %v; want %+v", got, err, h)
		}
	}
}

// TestEveryBitIsCovered: no single-bit corruption of any frame's
// checksummed bytes parses.
func TestEveryBitIsCovered(t *testing.T) {
	var fb [FeedbackSize]byte
	for name, f := range map[string]struct {
		pkt     []byte
		covered int // bytes under the checksum
		parse   func([]byte) error
	}{
		"DATA": {data(Header{Stream: 1, Name: 2, Tag: 3, TotalLen: 64, FragOff: 8, FragLen: 16}), HeaderSize,
			func(p []byte) error { _, err := ParseHeader(p); return err }},
		"CTRL": {EncodeControl(nil, &Control{Stream: 1, Cum: 5, Nacks: seq(3)}), -1,
			func(p []byte) error { _, err := ParseControl(p); return err }},
		"HB": {EncodeHeartbeat(nil, 1, 99), -1,
			func(p []byte) error { _, _, err := ParseHeartbeat(p); return err }},
		"FB": {EncodeFeedback(fb[:0], 1, 2, 3, 4), -1,
			func(p []byte) error { _, _, _, _, err := ParseFeedback(p); return err }},
		"CA": {EncodeCustody(&CustodyAck{Stream: 3, Relay: 7, Cum: 42, Names: seq(3)}), -1,
			func(p []byte) error { _, err := ParseCustody(p); return err }},
		"OTP": {otp(OTPHeader{Flags: OTPData, Conn: 2, Seq: 100, Len: 50}), -1,
			func(p []byte) error { _, err := ParseOTP(p); return err }},
	} {
		if err := f.parse(f.pkt); err != nil {
			t.Fatalf("%s: pristine frame rejected: %v", name, err)
		}
		if f.covered < 0 {
			f.covered = len(f.pkt)
		}
		for bit := 0; bit < f.covered*8; bit++ {
			mut := append([]byte(nil), f.pkt...)
			mut[bit/8] ^= 1 << (bit % 8)
			if f.parse(mut) == nil {
				t.Errorf("%s: bit %d corrupted and the frame still parsed", name, bit)
			}
		}
		if f.parse(nil) == nil || f.parse(f.pkt[:len(f.pkt)-2]) == nil {
			t.Errorf("%s: empty or truncated frame parsed", name)
		}
	}
}

func TestParseHeaderRejects(t *testing.T) {
	for name, h := range map[string]Header{
		"fragment past the ADU": {TotalLen: 100, FragOff: 96, FragLen: 8},
		"unaligned offset":      {TotalLen: 100, FragOff: 4, FragLen: 8},
	} {
		if _, err := ParseHeader(data(h)); !errors.Is(err, ErrBadHeader) {
			t.Errorf("%s: err = %v", name, err)
		}
	}
	pkt := data(Header{TotalLen: 64, FragLen: 64})
	if _, err := ParseHeader(pkt[:HeaderSize+63]); !errors.Is(err, ErrBadHeader) {
		t.Errorf("truncated payload: err = %v", err)
	}
	// ParseOTP tells "no header" from "damaged", and still reports whose
	// segment the damaged one claims to be.
	if _, err := ParseOTP(make([]byte, OTPHeaderSize-1)); err != ErrOTPShort {
		t.Errorf("short segment: err = %v", err)
	}
	seg := otp(OTPHeader{Flags: OTPData, Conn: 9, Len: 10})
	seg[OTPHeaderSize] ^= 1
	if h, err := ParseOTP(seg); err != ErrOTPChecksum || h.Conn != 9 {
		t.Errorf("damaged segment: conn %d, err = %v", h.Conn, err)
	}
}

// The fixed-width header sums are the general one, bit for bit:
// headerSum folds to ^Sum16, and says valid exactly where Verify16 does,
// for random headers, all-ones words, words whose sum carries out of
// bit 63 many times over, and every header with its checksum stamped;
// and PutHeader, which sums the fields, stamps what Sum16 of the bytes
// it wrote gives, for random fields and all-ones ones.
func TestHeaderSumMatchesSum16(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ones := Header{Stream: 0xff, Name: math.MaxUint64, Tag: math.MaxUint64, Syntax: 0xff, Flags: 0xff,
		TotalLen: -1, FragOff: -1, FragLen: 0xffff, ADUCheck: 0xffff}
	for i := range 10001 {
		h := ones
		if i > 0 {
			h = Header{Stream: byte(rng.Uint32()), Name: rng.Uint64(), Tag: rng.Uint64(), Syntax: xcode.SyntaxID(rng.Uint32()),
				Flags: Flags(rng.Uint32()), TotalLen: int(rng.Int31()), FragOff: int(rng.Int31()), FragLen: rng.Intn(1 << 16),
				ADUCheck: uint16(rng.Uint32())}
		}
		b := make([]byte, HeaderSize)
		PutHeader(b, &h)
		want := slices.Clone(b)
		want[32], want[33] = 0, 0
		binary.BigEndian.PutUint16(want[32:], checksum.Sum16(want))
		if !bytes.Equal(b, want) {
			t.Fatalf("%+v: PutHeader wrote %x, want %x", h, b, want)
		}
	}
	var cases [][]byte
	for _, w := range []uint64{0, 1, 0xff, 0x8000000000000000, 0xfffffffffffffffe, math.MaxUint64} {
		b := make([]byte, HeaderSize)
		for i := 0; i+8 <= HeaderSize; i += 8 {
			binary.LittleEndian.PutUint64(b[i:], w)
		}
		binary.LittleEndian.PutUint16(b[32:], uint16(w))
		cases = append(cases, b)
	}
	for range 10000 {
		b := make([]byte, HeaderSize)
		rng.Read(b)
		if rng.Intn(4) == 0 {
			for i := range b[:32] {
				b[i] |= 0x80 // every word's top bit set: each add carries
			}
		}
		cases = append(cases, b)
	}
	for _, b := range cases {
		if got, want := headerSum(b), ^checksum.Sum16(b); got != want {
			t.Fatalf("header %x: sum %#04x, want %#04x", b, got, want)
		}
		if (headerSum(b) == 0xffff) != checksum.Verify16(b) {
			t.Fatalf("header %x: verdict differs from Verify16", b)
		}
		h := b[:HeaderSize:HeaderSize]
		h[32], h[33] = 0, 0
		binary.BigEndian.PutUint16(h[32:], ^headerSum(h))
		if !checksum.Verify16(h) || headerSum(h) != 0xffff {
			t.Fatalf("header %x: its stamped checksum does not verify", h)
		}
	}
}

func TestTypeOf(t *testing.T) {
	for _, c := range []struct {
		pkt  []byte
		want Type
	}{
		{[]byte{1, 0}, TypeData}, {[]byte{2}, TypeCtrl}, {[]byte{3}, TypeHB}, {[]byte{4}, TypeFB}, {[]byte{5}, TypeCA},
		{[]byte{0}, 0}, {[]byte{6}, 0}, {[]byte{9}, 0}, {nil, 0},
	} {
		if got := TypeOf(c.pkt); got != c.want {
			t.Errorf("TypeOf(%v) = %d, want %d", c.pkt, got, c.want)
		}
	}
}

// TestDescribeGolden pins one line per ALF frame type and every DATA
// marker.
func TestDescribeGolden(t *testing.T) {
	var fb [FeedbackSize]byte
	d := Header{Stream: 9, Name: 12, Tag: 0xBEEF, TotalLen: 300, FragOff: 128, FragLen: 128}
	with := func(f Flags) []byte { h := d; h.Flags = f; return data(h) }
	for _, c := range []struct {
		pkt  []byte
		want string
	}{
		{with(0), "alf DATA stream=9 adu=12 tag=0xbeef frag=[128:256) of 300"},
		{with(FlagEnciphered), "alf DATA stream=9 adu=12 tag=0xbeef frag=[128:256) of 300 enc"},
		{with(FlagAEAD), "alf DATA stream=9 adu=12 tag=0xbeef frag=[128:256) of 300 aead"},
		{with(FlagCritical), "alf DATA stream=9 adu=12 tag=0xbeef frag=[128:256) of 300 critical"},
		{with(FlagParity), "alf PARITY stream=9 adu=12 tag=0xbeef frag=[128:256) of 300"},
		{with(FlagParity | FlagAEAD | FlagCritical), "alf PARITY stream=9 adu=12 tag=0xbeef frag=[128:256) of 300 aead critical"},
		{EncodeControl(nil, &Control{Stream: 3, Cum: 7}), "alf CTRL stream=3 cum=7 nacks=0"},
		{EncodeControl(nil, &Control{Stream: 3, Cum: 7, Nacks: []uint64{9, 11}}), "alf CTRL stream=3 cum=7 nacks=2 [9 11]"},
		{EncodeControl(nil, &Control{Nacks: []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9}}), "alf CTRL stream=0 cum=0 nacks=9 [1 2 3 4 5 6 7 8 …]"},
		{EncodeHeartbeat(nil, 3, 42), "alf HB stream=3 next=42"},
		{EncodeFeedback(fb[:0], 3, 5, 1<<33, 12345), "alf FB stream=3 seq=5 wire=8589934592 delivered=12345"},
		{EncodeCustody(&CustodyAck{Stream: 3, Relay: 7, Cum: 42, Names: []uint64{50, 99}}), "alf CA stream=3 relay=7 cum=42 names=2 [50 99]"},
		{EncodeCustody(&CustodyAck{Stream: 3}), "alf CA stream=3 relay=0 cum=0 names=0"},
		{with(0)[:HeaderSize-1], "alf DATA: damaged or truncated (33 bytes)"},
		{with(FlagAEAD)[:HeaderSize+128], "alf DATA: damaged or truncated (162 bytes)"}, // the tag is missing
		{[]byte{2, 0, 0}, "alf CTRL: damaged or truncated (3 bytes)"},
		{[]byte{3}, "alf HB: damaged or truncated (1 bytes)"},
		{[]byte{4, 1}, "alf FB: damaged or truncated (2 bytes)"},
		{[]byte{5, 1, 2, 3}, "alf CA: damaged or truncated (4 bytes)"},
		{nil, "alf: empty"},
	} {
		if got := Describe(c.pkt); got != c.want {
			t.Errorf("Describe(%x)\n got %q\nwant %q", c.pkt, got, c.want)
		}
	}
}

// TestDescribeALFData: the lines a trace of an enciphered FEC stream
// shows (a 300-byte ADU as three fragments, parity after each group of
// two) carry the stream, the tag and the cipher marker, and tell parity
// from data.
func TestDescribeALFData(t *testing.T) {
	frag := func(off, n int, f Flags) []byte {
		return data(Header{Stream: 9, Tag: 0xBEEF, Flags: FlagEnciphered | f, TotalLen: 300, FragOff: off, FragLen: n})
	}
	var dataLines, parity int
	for _, pkt := range [][]byte{
		frag(0, 128, 0), frag(128, 128, 0), frag(0, 128, FlagParity),
		frag(256, 44, 0), frag(256, 44, FlagParity),
	} {
		line := Describe(pkt)
		switch {
		case strings.Contains(line, "PARITY"):
			parity++
		case strings.Contains(line, "DATA"):
			dataLines++
			if !strings.Contains(line, "stream=9") || !strings.Contains(line, "tag=0xbeef") {
				t.Errorf("data line missing fields: %q", line)
			}
		}
		if !strings.Contains(line, "enc") {
			t.Errorf("enciphered flag not shown: %q", line)
		}
	}
	if dataLines != 3 || parity != 2 {
		t.Errorf("described %d data, %d parity fragments", dataLines, parity)
	}
}

func TestDescribeALFControlAndHB(t *testing.T) {
	if line := Describe(EncodeControl(nil, &Control{Cum: 1})); !strings.Contains(line, "CTRL") || !strings.Contains(line, "cum=1") {
		t.Errorf("control line: %q", line)
	}
	if line := Describe(EncodeHeartbeat(nil, 0, 1)); !strings.Contains(line, "HB") || !strings.Contains(line, "next=1") {
		t.Errorf("heartbeat line: %q", line)
	}
}

func TestDescribeNeverPanics(t *testing.T) {
	f := func(pkt []byte) bool {
		Describe(pkt)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestDescribeUnknownType pins the rendering of type bytes no ALF
// packet uses: an explicit hex line, never a misparse of another
// format and never a panic.
func TestDescribeUnknownType(t *testing.T) {
	cases := []struct {
		pkt  []byte
		want string
	}{
		{[]byte{0x00}, "alf: unknown type 0x00 (1 bytes)"},
		{[]byte{0x41, 1, 2, 3}, "alf: unknown type 0x41 (4 bytes)"},
		{[]byte{0xFF, 0xFF}, "alf: unknown type 0xFF (2 bytes)"},
	}
	for _, c := range cases {
		if got := Describe(c.pkt); got != c.want {
			t.Errorf("Describe(%v) = %q, want %q", c.pkt, got, c.want)
		}
	}
}

// TestPeek: every kind is recognized with the identity its strict
// parser reads, and only at exactly its own length.
func TestPeek(t *testing.T) {
	var fb [FeedbackSize]byte
	for _, c := range []struct {
		name string
		pkt  []byte
		want Info
	}{
		{"data", data(Header{Stream: 3, Name: 77, TotalLen: 2048, FragOff: 1024, FragLen: 512}),
			Info{KindData, 3, 77, 1024, 512}},
		{"aead data", data(Header{Stream: 3, Name: 77, Flags: FlagAEAD, TotalLen: 2048, FragOff: 1024, FragLen: 512}),
			Info{KindData, 3, 77, 1024, 512}},
		{"aead parity", data(Header{Stream: 3, Name: 77, Flags: FlagAEAD | FlagParity, TotalLen: 2048, FragLen: 512}),
			Info{KindData, 3, 77, 0, 512}},
		{"ctrl", EncodeControl(nil, &Control{Stream: 5, Cum: 8, Nacks: []uint64{9, 11}}), Info{Kind: KindCtrl, ID: 5}},
		{"hb", EncodeHeartbeat(nil, 7, 42), Info{Kind: KindHB, ID: 7, Name: 42}},
		{"fb", EncodeFeedback(fb[:0], 7, 6, 1, 1), Info{Kind: KindFB, ID: 7, Name: 6}},
		{"ca", EncodeCustody(&CustodyAck{Stream: 2, Relay: 1, Cum: 13, Names: []uint64{20}}), Info{Kind: KindCA, ID: 2, Name: 13}},
		{"otp data", otp(OTPHeader{Flags: OTPData, Conn: 2, Seq: 9000, Len: 300}), Info{Kind: KindOTPData, ID: 2, Off: 9000, Len: 300}},
		{"otp data+ack", otp(OTPHeader{Flags: OTPData | OTPAck, Conn: 2, Seq: 9000, Len: 300}), Info{Kind: KindOTPData, ID: 2, Off: 9000, Len: 300}},
		{"otp ack", otp(OTPHeader{Flags: OTPAck, Conn: 4, Ack: 12}), Info{Kind: KindOTPAck, ID: 4}},
		{"empty", nil, Info{}},
		{"garbage", []byte{9, 9, 9, 9}, Info{}},
	} {
		if got := Peek(c.pkt); got != c.want {
			t.Errorf("%s: Peek = %+v, want %+v", c.name, got, c.want)
		}
		if c.want.Kind == KindNone {
			continue
		}
		if got := Peek(append(c.pkt[:len(c.pkt):len(c.pkt)], 0, 0)); got.Kind == c.want.Kind {
			t.Errorf("%s: recognized with two stray bytes appended", c.name)
		}
		mut := append([]byte(nil), c.pkt...)
		mut[5] ^= 0xFF
		if got := Peek(mut); got.Kind != KindNone {
			t.Errorf("%s: recognized as %q with a corrupted byte", c.name, got.Kind)
		}
	}
	seg := otp(OTPHeader{Flags: OTPData | OTPAck, Conn: 2, Len: 64}) // first byte 3: tried as HB first
	ack := otp(OTPHeader{Flags: OTPAck, Conn: 2})                    // first byte 2: tried as CTRL first
	if n := testing.AllocsPerRun(100, func() { Peek(seg); Peek(ack) }); n != 0 {
		t.Errorf("Peek allocates %v times per rejected ALF candidate; it runs on every traced packet", n)
	}
}
