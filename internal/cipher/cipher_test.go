package cipher

import (
	"bytes"
	"testing"
)

// Seekability: XORKeyStream from byte offset off must equal the
// corresponding window of the stream generated from 0 — the property
// that lets ALF fragments decipher out of order at any 8-byte-aligned
// offset (and, at the primitive level, any offset at all).
func TestXORKeyStreamSeek(t *testing.T) {
	key := ExpandKey(0xC0FFEE)
	nonce := [NonceSize]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	const total = 4 * BlockSize
	zero := make([]byte, total)
	full := make([]byte, total)
	XORKeyStream(&key, &nonce, 0, full, zero) // full keystream

	for _, off := range []int{0, 1, 7, 8, 56, 63, 64, 65, 128, 200} {
		for _, n := range []int{0, 1, 8, 63, 64, 65, 130} {
			if off+n > total {
				continue
			}
			got := make([]byte, n)
			XORKeyStream(&key, &nonce, off, got, zero[:n])
			if !bytes.Equal(got, full[off:off+n]) {
				t.Fatalf("seek off=%d n=%d: window mismatch", off, n)
			}
		}
	}
}

func TestXORKeyStreamInPlace(t *testing.T) {
	key := ExpandKey(42)
	nonce := [NonceSize]byte{0xAA}
	msg := []byte("in-place encryption must equal out-of-place encryption!!")
	out := make([]byte, len(msg))
	XORKeyStream(&key, &nonce, 8, out, msg)
	inPlace := append([]byte(nil), msg...)
	XORKeyStream(&key, &nonce, 8, inPlace, inPlace)
	if !bytes.Equal(out, inPlace) {
		t.Fatal("in-place result differs")
	}
	XORKeyStream(&key, &nonce, 8, inPlace, inPlace)
	if !bytes.Equal(inPlace, msg) {
		t.Fatal("double application is not the identity")
	}
}

func TestExpandKeyDistinct(t *testing.T) {
	a, b := ExpandKey(1), ExpandKey(2)
	if a == b {
		t.Fatal("distinct seeds produced identical keys")
	}
	if a != ExpandKey(1) {
		t.Fatal("ExpandKey is not deterministic")
	}
}

func le64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// Poly1305 must survive accumulator growth: long messages with
// all-ones blocks stress the carry/reduction paths.
func TestMACCarryStress(t *testing.T) {
	var otk [KeySize]byte
	for i := range otk {
		otk[i] = 0xFF
	}
	msg := make([]byte, 1024)
	for i := range msg {
		msg[i] = 0xFF
	}
	one := NewMAC(&otk)
	one.Update(msg)
	var a [TagSize]byte
	one.Sum(a[:])

	// Same digest regardless of chunking.
	two := NewMAC(&otk)
	for i := 0; i < len(msg); i += 13 {
		end := i + 13
		if end > len(msg) {
			end = len(msg)
		}
		two.Update(msg[i:end])
	}
	if !two.Verify(a[:]) {
		t.Fatal("chunked all-ones digest differs")
	}
}
