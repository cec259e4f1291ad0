package cipher

import (
	"encoding/binary"
)

// The keystream loop. Every payload byte, sealed, opened or neither,
// crosses xorWide, on every build. ChaCha20 is a network of 32-bit
// adds, xors and rotates over sixteen words, and scalar Go runs it one
// word at a time; a vector unit runs a row of four words, of two blocks,
// per instruction. On amd64 with AVX2 keystream8mac (wide_amd64.s) makes
// eight blocks per call that way. Poly1305 is the other half of the work
// and wants the other half of the machine — a serial chain of 64-bit
// multiplies on the integer ports, which the rounds barely use — so the
// same call also folds up to foldMax whole 16-byte blocks into a MAC,
// between its rounds. It reads one fixed-size state, those blocks and
// the MAC's limbs, and writes one fixed-size buffer and the limbs, so
// every slice, every bounds check, the XOR against the payload, partial
// blocks and every tag are the Go below. keystream is the one place that
// chooses between the kernel and Block: everywhere else — other
// architectures, amd64 without AVX2, -tags purego — haveWide is false
// and it makes the same blocks one Block at a time and folds with
// MAC.Update, which is also the oracle the tests hold the kernel against.

const (
	wideBlocks = 8
	wideSize   = wideBlocks * BlockSize
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

// keystream writes the nb <= wideBlocks blocks at counters ctr, ctr+1,
// … (wrapping at 2^32, as ctr++ does) to ks[:nb*BlockSize], and folds
// msg, whole 16-byte blocks, into mac, which must be at a block
// boundary. The wide kernel always writes all of ks.
func keystream(key *Key, nonce *[NonceSize]byte, ctr uint32, ks *[wideSize]byte, nb int, mac *MAC, msg []byte) {
	if !haveWide || nb < wideMin {
		for b := 0; b < nb; b++ {
			Block(key, nonce, ctr+uint32(b), (*[BlockSize]byte)(ks[b*BlockSize:]))
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
	n0 := binary.LittleEndian.Uint32(nonce[0:])
	n1 := binary.LittleEndian.Uint32(nonce[4:])
	n2 := binary.LittleEndian.Uint32(nonce[8:])
	k := &key.k
	// The initial state as the kernel wants it: each row twice, for the
	// two blocks of a quad, and one counter row per quad.
	in := [7][8]uint32{
		{0x61707865, 0x3320646e, 0x79622d32, 0x6b206574, 0x61707865, 0x3320646e, 0x79622d32, 0x6b206574},
		{k[0], k[1], k[2], k[3], k[0], k[1], k[2], k[3]},
		{k[4], k[5], k[6], k[7], k[4], k[5], k[6], k[7]},
		{ctr, n0, n1, n2, ctr + 1, n0, n1, n2},
		{ctr + 2, n0, n1, n2, ctr + 3, n0, n1, n2},
		{ctr + 4, n0, n1, n2, ctr + 5, n0, n1, n2},
		{ctr + 6, n0, n1, n2, ctr + 7, n0, n1, n2},
	}
	keystream8mac(&in, ks, mac, p, len(msg)/TagSize)
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
// sealing.
func xorWide(key *Key, nonce *[NonceSize]byte, ctr uint32, skip int, dst, src []byte, mac *MAC, ch *Chain, seal bool) {
	var ks [wideSize]byte
	// A MAC'd run that starts mid-block takes its head from one block of
	// its own, with the MAC fed by MAC.Update. Left to the first call, the
	// skip shifts every chunk boundary: a 1 008-byte fragment at skip 48,
	// 32 or 16, as SuiteAEAD lays them out, spans 17 blocks and would be
	// calls of 8, 8 and 1, the last of them one Block that folds the 512
	// bytes before it in Go with no rounds to hide them behind. Peeled,
	// it is 1, 8 and 8, every chunk after the head folds inside a kernel
	// call, and a chain's end still rides in the first one. Without a MAC
	// there is nothing to fold, and the first call takes the skip.
	if mac != nil && skip != 0 {
		m := min(BlockSize-skip, len(src))
		s, d := src[:m:m], dst[:m:m]
		keystream(key, nonce, ctr, &ks, 1, nil, nil)
		if !seal {
			mac.Update(s)
		}
		xor3(d, s, ks[skip:skip+m:skip+m])
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
	for len(src) > 0 {
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
		keystream(key, nonce, ctr, &ks, (skip+m+BlockSize-1)/BlockSize, into, fold[:k])
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
		ctr += wideBlocks
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
