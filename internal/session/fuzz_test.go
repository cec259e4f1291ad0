package session

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/checksum"
	alf "repro/internal/core"
	"repro/internal/xcode"
)

// FuzzSession feeds arbitrary bytes to the session plane's three
// decoders: none panics, every message one accepts re-encodes to the
// same bytes, and Describe never returns an empty line.
func FuzzSession(f *testing.F) {
	offer := encodeOffer(Params{StreamID: 3, Encrypt: true, Policy: alf.SenderBuffered, MTU: 1100,
		FECGroup: 4, RateBps: 1e6, Syntaxes: []xcode.SyntaxID{xcode.SyntaxRaw, xcode.SyntaxBER}}, 42)
	f.Add(offer)
	f.Add(encodeOffer(Params{StreamID: 1, Syntaxes: []xcode.SyntaxID{xcode.SyntaxXDR}}, 7))
	f.Add(encodeAccept(3, xcode.SyntaxBER, 9))
	f.Add(encodeReject(4, ReasonRefused))
	// Checksum-valid messages with a non-zero pad byte, a reserved flag
	// bit, and a rate no float64 holds: each re-encodes to other bytes.
	f.Add(resealed(encodeReject(4, ReasonRefused), 3, 0xff))
	f.Add(resealed(encodeAccept(3, xcode.SyntaxBER, 9), 11, 1))
	f.Add(resealed(offer, 2, 3))
	f.Add(resealed(offer, 8, 0xff))
	f.Fuzz(func(t *testing.T, pkt []byte) {
		if Describe(pkt) == "" {
			t.Errorf("empty description of %x", pkt)
		}
		if p, key, err := parseOffer(pkt); err == nil {
			if got := encodeOffer(p, key); !bytes.Equal(got, pkt) {
				t.Errorf("offer %x re-encodes as %x", pkt, got)
			}
		}
		if stream, syntax, key, err := parseAccept(pkt); err == nil {
			if got := encodeAccept(stream, syntax, key); !bytes.Equal(got, pkt) {
				t.Errorf("accept %x re-encodes as %x", pkt, got)
			}
		}
		if stream, reason, err := parseReject(pkt); err == nil {
			if got := encodeReject(stream, reason); !bytes.Equal(got, pkt) {
				t.Errorf("reject %x re-encodes as %x", pkt, got)
			}
		}
	})
}

// resealed returns a copy of a sealed message with byte i set to v and
// the checksum recomputed, so only the parsers' other checks can refuse
// it.
func resealed(msg []byte, i int, v byte) []byte {
	out := append([]byte(nil), msg...)
	out[i] = v
	n := len(out) - 2
	binary.BigEndian.PutUint16(out[n:], checksum.Sum16(out[:n]))
	return out
}
