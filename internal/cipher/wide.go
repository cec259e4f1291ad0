package cipher

import (
	"crypto/subtle"
	"unsafe"
)

// The keystream loop. Every payload byte, sealed, opened or neither,
// crosses xorWide, on every build. ChaCha20 is a network of 32-bit
// adds, xors and rotates over sixteen words, which scalar Go runs one
// word at a time and a vector unit one word of many blocks at a time.
// On amd64 with AVX-512F keystream16mac (wide_amd64.s) makes sixteen
// blocks per call that way, one per lane, each at a counter of the
// caller's; with AVX2 only, keystream8mac makes eight and two calls
// answer a row of sixteen. The payload passes ctr … ctr+15, and Blocks
// whatever counters a caller needs one block each of (tag keys, heads).
// Poly1305 wants the other half of the machine, a chain of 64-bit
// multiplies on the integer ports the rounds barely use, so the same
// call folds up to foldMax whole 16-byte blocks into a MAC between its
// rounds, two per step: h = (h + m1)·r² + m2·r, one reduction per pair,
// which halves the chain each block waits on. A kernel reads the key,
// the nonce, the counters, those blocks and the MAC's limbs and writes
// one fixed-size buffer and the limbs; every slice and bounds check, the
// XOR, partial blocks, an odd last block and every tag are the Go below.
// keystream is the one place that picks a kernel or Block: everywhere
// else — other architectures, amd64 without AVX2, -tags purego — kernel
// is scalar, and it makes the same blocks with Block and folds with
// MAC.Update, the oracle the tests hold every kernel against.

// Lanes is how many blocks one kernel call makes, and so how many
// counters one Blocks call takes.
const Lanes = 16

const (
	wideSize = Lanes * BlockSize
	// A kernel call costs about what two scalar Block calls do, so at
	// two blocks it breaks even on keystream and wins by the MAC work it
	// hides. A run of one block is one Block.
	wideMin = 2
	// foldMax is how many Poly1305 blocks one call can fold: a pair in
	// each of four slots per double round. xorWide never asks for more
	// than a chunk's 64.
	foldMax = 80
)

// The keystream kernels, from the one keystream prefers down.
const (
	scalar = iota // Block, and MAC.Update
	avx2          // keystream8mac, two calls to a row of Lanes
	avx512        // keystream16mac
)

// kernel is the best of them this CPU has, picked once at start; only
// tests assign it, to run every kernel the CPU has on one machine.
var kernel = detect()

// keystream writes the nb <= Lanes blocks at counters ctrs[0], …,
// ctrs[nb-1] to ks[:nb*BlockSize], and folds msg, whole 16-byte blocks,
// into mac, which must be at a block boundary. A kernel may write more
// of ks than nb blocks.
func keystream(key *Key, nonce *[NonceSize]byte, ctrs *[Lanes]uint32, ks *[wideSize]byte, nb int, mac *MAC, msg []byte) {
	if kernel == scalar || nb < wideMin {
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
	np, p := len(msg)/(2*TagSize), unsafe.SliceData(msg)
	switch {
	case kernel == avx512:
		keystream16mac(key, nonce, ctrs, ks, mac, p, np)
	case nb <= Lanes/2:
		keystream8mac(key, nonce, (*[Lanes / 2]uint32)(ctrs[:]), (*[wideSize / 2]byte)(ks[:]), mac, p, np)
	default:
		h := np / 2
		keystream8mac(key, nonce, (*[Lanes / 2]uint32)(ctrs[:]), (*[wideSize / 2]byte)(ks[:]), mac, p, h)
		keystream8mac(key, nonce, (*[Lanes / 2]uint32)(ctrs[Lanes/2:]), (*[wideSize / 2]byte)(ks[wideSize/2:]), mac, unsafe.SliceData(msg[2*TagSize*h:]), np-h)
	}
	if len(msg)%(2*TagSize) != 0 {
		mac.Update(msg[len(msg)-TagSize:])
	}
}

// Blocks writes the ChaCha20 blocks of (key, nonce) at counters ctrs[0],
// …, ctrs[n-1] — any counters, in any order, repeated or not — to out,
// block i at out[i*BlockSize:], each the bytes Block writes for its
// counter; n <= Lanes, and what out holds past block n-1 is unspecified.
// From wideMin blocks up, where there is a kernel, that is one call of
// it: a caller that needs many one-off blocks (one-time MAC keys, heads
// for XORKeyStreamMAC) gathers their counters and makes them sixteen at
// a time.
func Blocks(key *Key, nonce *[NonceSize]byte, ctrs *[Lanes]uint32, n int, out *[Lanes * BlockSize]byte) {
	keystream(key, nonce, ctrs, out, n, nil, nil)
}

// absorb takes msg into mac as MAC.Update does. Where there is a kernel,
// the whole pairs of a long msg fold in a call of it whose keystream
// nobody reads: sixty-four blocks take about as long there as twenty
// through MAC.Update. That is how a seal's last chunk, and a chain's, is
// folded once there is no next call to ride in.
func absorb(mac *MAC, msg []byte) {
	if k := len(msg) &^ (2*TagSize - 1); kernel != scalar && mac.n == 0 && k >= wideSize/2 {
		var ks [wideSize]byte
		keystream(&Key{}, &[NonceSize]byte{}, &[Lanes]uint32{}, &ks, wideMin, mac, msg[:k])
		msg = msg[k:]
	}
	mac.Update(msg)
}

// xorWide is the loop under XORKeyStream and XORKeyStreamMAC: dst = src
// XOR the keystream that starts at byte skip of block ctr, and, with a
// mac, the ciphertext — dst if seal, else src — absorbed into it. Per
// chunk of up to 1 KiB that is one keystream call and one XOR of its
// output against the source, and the call folds one chunk of ciphertext
// on the side. Opening, that is the chunk the call deciphers, folded
// before the XOR so that dst may be src. Sealing, the ciphertext exists
// only after the XOR, so each call folds the chunk the call before it
// enciphered; the last chunk is folded here (absorb), or, with a chain
// ch, left to it (Chain.Sum) and folded by the first call of the next
// message sealed through ch — whose own first call has nothing of its
// own to fold. Whatever is not a whole block at a block boundary of the
// MAC goes through MAC.Update. Being fed from a buffer the loop is not
// tied to block boundaries either: it consumes all of src, so a
// fragment's tail costs a lane of a call that was being made anyway and
// not a Block of its own. len(dst) >= len(src), and dst and src are
// the same bytes or disjoint; ch is nil unless sealing; head, if not
// nil, is block ctr, made ahead of time.
func xorWide(key *Key, nonce *[NonceSize]byte, ctr uint32, skip int, dst, src []byte, mac *MAC, ch *Chain, head *[BlockSize]byte, seal bool) {
	var ks [wideSize]byte
	// A MAC'd run that starts mid-block takes its head from one block of
	// its own, with the MAC fed by MAC.Update. Left to the first call, the
	// skip shifts every chunk boundary: a 1 008-byte fragment at skip 48,
	// 32 or 16, as SuiteAEAD lays them out, spans 17 blocks and would be
	// calls of 16 and 1, the last of them one Block that folds the 976
	// bytes before it in Go with no rounds to hide them behind. Peeled,
	// it is 1 and 16, every chunk after the head folds inside a kernel
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
		subtle.XORBytes(d, s, head[skip:skip+m])
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
		subtle.XORBytes(d, s, ks[skip:skip+m])
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
		absorb(mac, fold)
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
	absorb(&c.mac, tail)
	c.mac.Sum(c.tag)
	*c = Chain{}
}
