package cipher

import (
	"encoding/binary"
)

// The keystream loop. Every payload byte, sealed, opened or neither,
// crosses xorWide, on every build. ChaCha20 is a network of 32-bit
// adds, xors and rotates over sixteen words, and scalar Go runs it one
// word at a time; a vector unit runs a row of four words, of two blocks,
// per instruction. On amd64 with AVX2 keystream8mac (wide_amd64.s) makes
// eight blocks per call that way, one per lane, each at a counter of the
// caller's: the payload passes ctr … ctr+7, and Blocks whatever counters
// a caller needs one block each of — tag keys, heads — so those come
// eight to a call too. Poly1305 is the other half of the work and wants
// the other half of the machine — a serial chain of 64-bit multiplies on
// the integer ports, which the rounds barely use — so the same call also
// folds up to foldMax whole 16-byte blocks into a MAC, between its
// rounds. It reads the key, the nonce and the counter row, from which it
// lays out its own initial state, those blocks and the MAC's limbs, and
// writes one fixed-size buffer and the limbs, so every slice, every
// bounds check, the XOR against the payload, partial blocks and every
// tag are the Go below. keystream is the one place that chooses between
// the kernel and Block: everywhere else — other architectures, amd64
// without AVX2, -tags purego — haveWide is false and it makes the same
// blocks one Block at a time and folds with MAC.Update, which is also
// the oracle the tests hold the kernel against.

// Lanes is how many blocks one kernel call makes, and so how many
// counters one Blocks call takes.
const Lanes = 8

const (
	wideSize = Lanes * BlockSize
	// A keystream8mac call costs about what two scalar Block calls do, so
	// at two blocks it breaks even on keystream and wins by the MAC work
	// it hides: the 128-byte last fragment of an 8 KiB ADU is one call,
	// which also folds the chained end of the fragment sealed before it.
	// A run of one block is one Block.
	wideMin = 2
	// foldMax is how many Poly1305 blocks one call can fold: four per
	// double round. xorWide never asks for more than a chunk's 32.
	foldMax = 40
)

// keystream writes the nb <= Lanes blocks at counters ctrs[0], …,
// ctrs[nb-1] to ks[:nb*BlockSize], and folds msg, whole 16-byte blocks,
// into mac, which must be at a block boundary. The wide kernel always
// writes all of ks.
func keystream(key *Key, nonce *[NonceSize]byte, ctrs *[Lanes]uint32, ks *[wideSize]byte, nb int, mac *MAC, msg []byte) {
	if !haveWide || nb < wideMin {
		for b := 0; b < nb; b++ {
			Block(key, nonce, ctrs[b], (*[BlockSize]byte)(ks[b*BlockSize:]))
		}
		if len(msg) > 0 {
			mac.Update(msg)
		}
		return
	}
	if len(msg) > foldMax*TagSize || len(msg)%TagSize != 0 {
		panic("cipher: a kernel call folds at most foldMax whole blocks")
	}
	var p *byte
	if len(msg) > 0 {
		p = &msg[0]
	}
	keystream8mac(key, nonce, ctrs, ks, mac, p, len(msg)/TagSize)
}

// Blocks writes the ChaCha20 blocks of (key, nonce) at counters ctrs[0],
// …, ctrs[n-1] — any counters, in any order, repeated or not — to out,
// block i at out[i*BlockSize:], each the bytes Block writes for its
// counter; n <= Lanes, and what out holds past block n-1 is unspecified.
// From wideMin blocks up, where there is a kernel, that is one call of
// it: a caller that needs many one-off blocks (one-time MAC keys, heads
// for XORKeyStreamMAC) gathers their counters and makes them eight at a
// time.
func Blocks(key *Key, nonce *[NonceSize]byte, ctrs *[Lanes]uint32, n int, out *[Lanes * BlockSize]byte) {
	keystream(key, nonce, ctrs, out, n, nil, nil)
}

// xorWide is the loop under XORKeyStream and XORKeyStreamMAC: dst = src
// XOR the keystream that starts at byte skip of block ctr, and, with a
// mac, the ciphertext — dst if seal, else src — absorbed into it. Per
// chunk of up to 512 bytes that is one keystream call and one XOR of its
// output against the source, and the call folds one chunk of ciphertext
// on the side. Opening, that is the chunk the call deciphers, folded
// before the XOR so that dst may be src. Sealing, the ciphertext exists
// only after the XOR, so each call folds the chunk the call before it
// enciphered; the last chunk is folded here in Go, or, with a chain ch,
// left to it (Chain.Sum) and folded by the first call of the next
// message sealed through ch — whose own first call has nothing of its
// own to fold. Whatever is not a whole block at a block boundary of the
// MAC goes through MAC.Update. Being fed from a buffer the loop is not
// tied to block boundaries either: it consumes all of src, so a
// fragment's tail costs a lane of a call that was being made anyway and
// not a Block of its own. len(dst) >= len(src); ch is nil unless
// sealing; head, if not nil, is block ctr, made ahead of time.
func xorWide(key *Key, nonce *[NonceSize]byte, ctr uint32, skip int, dst, src []byte, mac *MAC, ch *Chain, head *[BlockSize]byte, seal bool) {
	var ks [wideSize]byte
	// A MAC'd run that starts mid-block takes its head from one block of
	// its own, with the MAC fed by MAC.Update. Left to the first call, the
	// skip shifts every chunk boundary: a 1 008-byte fragment at skip 48,
	// 32 or 16, as SuiteAEAD lays them out, spans 17 blocks and would be
	// calls of 8, 8 and 1, the last of them one Block that folds the 512
	// bytes before it in Go with no rounds to hide them behind. Peeled,
	// it is 1, 8 and 8, every chunk after the head folds inside a kernel
	// call, and a chain's end still rides in the first one. The head block
	// is the caller's if it made it, in a lane of a Blocks call beside
	// others, and one Block here if not. Without a MAC there is nothing to
	// fold, and the first call takes the skip.
	if mac != nil && skip != 0 {
		m := min(BlockSize-skip, len(src))
		s, d := src[:m:m], dst[:m:m]
		if head == nil {
			head = (*[BlockSize]byte)(ks[:BlockSize])
			Block(key, nonce, ctr, head)
		}
		if !seal {
			mac.Update(s)
		}
		xor3(d, s, head[skip:skip+m:skip+m])
		if seal {
			mac.Update(d)
		}
		ctr++
		src, dst, skip = src[m:], dst[m:], 0
	}
	if len(src) == 0 {
		return // a chain is consumed by a call, and there is none to make
	}
	// The next call folds fold into into.
	var fold []byte
	var into *MAC
	chained := ch != nil && ch.tag != nil
	if chained {
		fold, into = ch.msg, &ch.mac
	}
	var ctrs [Lanes]uint32
	for len(src) > 0 {
		for b := range ctrs {
			ctrs[b] = ctr + uint32(b)
		}
		m := wideSize - skip
		if m > len(src) {
			m = len(src)
		}
		s, d := src[:m:m], dst[:m:m]
		if mac != nil && !seal {
			fold, into = s, mac
		}
		k := len(fold) &^ (TagSize - 1)
		if into != nil && into.n != 0 {
			k = 0
		}
		keystream(key, nonce, &ctrs, &ks, (skip+m+BlockSize-1)/BlockSize, into, fold[:k])
		if chained {
			ch.finish(fold[k:])
			chained = false
		} else if into != nil {
			into.Update(fold[k:])
		}
		xor3(d, s, ks[skip:skip+m:skip+m])
		if mac != nil && seal {
			fold, into = d, mac
		}
		ctr += Lanes
		src, dst = src[m:], dst[m:]
		skip = 0
	}
	if mac != nil && seal {
		if ch != nil {
			ch.held = len(fold)
			return
		}
		mac.Update(fold)
	}
}

// Chain carries the end of one sealed message into the kernel call that
// seals the next, so that Poly1305 over a fragment's last chunk runs in
// the shadow of the next fragment's keystream instead of alone. A tag
// sealed through a chain is only written once that call or Flush has
// run, so whoever seals a run of fragments through one chain flushes it
// before any of their tags is read. The zero Chain is empty and ready.
type Chain struct {
	mac  MAC    // the MAC whose message ends in msg
	msg  []byte // the end of that message, not yet folded in
	tag  []byte // where its tag goes; nil while the chain is empty
	held int    // bytes the last seal left for the chain, until Sum
}

// Sum writes mac's tag into tag: at once, or, if the seal of ct (the
// whole message mac has absorbed but for its end) left its last chunk
// for the chain, when the chain's next kernel call or Flush folds that
// chunk in. The chain must be empty or have been consumed by that seal.
// A nil chain is mac.Sum.
func (c *Chain) Sum(mac *MAC, ct, tag []byte) {
	if c == nil || c.held == 0 {
		mac.Sum(tag)
		return
	}
	c.mac, c.msg, c.tag, c.held = *mac, ct[len(ct)-c.held:], tag, 0
}

// Flush folds in what the chain holds and writes its tag, leaving the
// chain empty. It does nothing to a nil or empty chain, and inlines to
// that test.
func (c *Chain) Flush() {
	if c != nil && c.tag != nil {
		c.finish(c.msg)
	}
}

// finish folds in tail, the rest of the chain's message, writes its tag
// and empties the chain, so that nothing it pointed into is written
// again.
func (c *Chain) finish(tail []byte) {
	c.mac.Update(tail)
	c.mac.Sum(c.tag)
	*c = Chain{}
}

// xor3 sets d = s XOR k over slices of one length. Each 64-byte window
// is one full slice expression, which leaves the compiler one check per
// window to make (see ilp.XORWords).
func xor3(d, s, k []byte) {
	le := binary.LittleEndian
	n := len(s)
	j := 0
	for ; n-j >= 64; j += 64 {
		sw, dw, kw := s[j:j+64:j+64], d[j:j+64:j+64], k[j:j+64:j+64]
		le.PutUint64(dw[0:], le.Uint64(sw[0:])^le.Uint64(kw[0:]))
		le.PutUint64(dw[8:], le.Uint64(sw[8:])^le.Uint64(kw[8:]))
		le.PutUint64(dw[16:], le.Uint64(sw[16:])^le.Uint64(kw[16:]))
		le.PutUint64(dw[24:], le.Uint64(sw[24:])^le.Uint64(kw[24:]))
		le.PutUint64(dw[32:], le.Uint64(sw[32:])^le.Uint64(kw[32:]))
		le.PutUint64(dw[40:], le.Uint64(sw[40:])^le.Uint64(kw[40:]))
		le.PutUint64(dw[48:], le.Uint64(sw[48:])^le.Uint64(kw[48:]))
		le.PutUint64(dw[56:], le.Uint64(sw[56:])^le.Uint64(kw[56:]))
	}
	for ; n-j >= 8; j += 8 {
		le.PutUint64(d[j:j+8:j+8], le.Uint64(s[j:j+8:j+8])^le.Uint64(k[j:j+8:j+8]))
	}
	for ; j < n; j++ {
		d[j] = s[j] ^ k[j]
	}
}
