package cipher

import (
	"crypto/subtle"
	"unsafe"

	"repro/internal/cpu"
)

// The keystream loop. Every payload byte, sealed, opened or neither,
// crosses xorWide, on every build. ChaCha20 is a network of 32-bit
// adds, xors and rotates over sixteen words, which scalar Go runs one
// word at a time and a vector unit one word of many blocks at a time.
// On amd64 with AVX-512F keystream16mac or keystream16ifma
// (wide_amd64.s) makes sixteen blocks per call that way, one per lane,
// each at a counter of the caller's; with AVX2 only, keystream8mac makes eight and two calls
// answer a row of sixteen. The payload passes ctr … ctr+15, and Blocks
// whatever counters a caller needs one block each of (tag keys, heads).
// A call XORs its whole blocks from the source straight into the
// destination, so the payload's keystream never passes through memory;
// only a part block's comes back, for Go to XOR. The same call folds
// every whole 16-byte Poly1305 block it is handed, up to foldMax, into a
// MAC between its rounds. With AVX-512 IFMA (keystream16ifma) a fold of
// ifmaMin blocks or more is on the vector unit, eight blocks per step in
// eight 64-bit lanes of radix 2^44, at about five vector instructions a
// block against the scalar step's forty-odd. Without it (AVX-512F alone,
// AVX2), or on a shorter fold, the fold is a chain of 64-bit multiplies
// on the integer ports, two blocks per step: h = (h + m1)·r² + m2·r,
// one reduction per pair, and an odd last
// block is one MAC.block step after the rounds. A kernel reads the key,
// the nonce, the counters, the source, those blocks and the MAC's limbs
// and writes the destination, a part block's keystream and the limbs;
// every slice and bounds check, a run's mid-block head and a part
// block's XOR, the bytes of a last part Poly1305 block, and every tag
// are the Go below. keystream is the one place that picks a kernel or
// Block: everywhere else — other architectures, amd64 without AVX2,
// -tags purego — kernel is scalar, and it makes the same blocks with
// Block and folds with MAC.Update, the oracle the tests hold every
// kernel against.

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
	// than a chunk's 64 and a head's 3.
	foldMax = 80
	// foldMin is the shortest fold worth a kernel call of its own, with
	// no lanes to make beside it.
	foldMin = wideSize / 2
	// ifmaMin is the shortest fold keystream16ifma takes: below it the
	// pair fold is cheaper (BenchmarkKeystreamMAC).
	ifmaMin = 12
)

// The keystream kernels, from the one keystream prefers down.
const (
	scalar     = iota // Block, and MAC.Update
	avx2              // keystream8mac, two calls to a row of Lanes
	avx512            // keystream16mac, the fold on the integer ports
	avx512ifma        // keystream16ifma, the fold on the vector unit
)

// kernel is the best of them this CPU has, picked once at start; only
// tests assign it, to run every kernel the CPU has on one machine.
var kernel = detect()

// detect picks by what internal/cpu read.
func detect() int {
	switch {
	case cpu.AVX512IFMA:
		return avx512ifma
	case cpu.AVX512F:
		return avx512
	case cpu.AVX2:
		return avx2
	}
	return scalar
}

// laneRow is the payload loop's counter row: lane i of a call at add
// makes block add + i, so one row serves every call.
var laneRow = [Lanes]uint32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}

// The key and nonce of a fold-only call, whose blocks nobody reads, and
// the source Blocks XORs its blocks with.
var (
	foldKey   Key
	foldNonce [NonceSize]byte
	zeros     [wideSize]byte
)

// keystream runs one call's lanes: lane i makes the block of (key,
// nonce) at counter ctrs[i] + add. The blocks of lanes 0 to nx-1 are
// XORed from src into dst, 64 bytes each, and lane nx's block is
// written to tail unless tail is nil: a run of whole blocks, and the
// keystream of the part block after it. On the side it folds msg, whole
// 16-byte blocks, at most foldMax of them, into mac.
func keystream(key *Key, nonce *[NonceSize]byte, ctrs *[Lanes]uint32, add uint32, dst, src []byte, nx int, tail *[BlockSize]byte, mac *MAC, msg []byte) {
	nb := nx
	if tail != nil {
		nb++
	}
	// A MAC with a part block buffered cannot take whole blocks, and a
	// short fold with no lanes to hide behind is cheaper in Go.
	if len(msg) > 0 && (kernel == scalar || mac.n != 0 || nb < wideMin && len(msg) < foldMin) {
		mac.Update(msg)
		msg = nil
	}
	if kernel == scalar || nb < wideMin && len(msg) == 0 {
		var blk [BlockSize]byte
		for b := 0; b < nx; b++ {
			Block(key, nonce, ctrs[b]+add, &blk)
			subtle.XORBytes(dst[b*BlockSize:(b+1)*BlockSize], src[b*BlockSize:(b+1)*BlockSize], blk[:])
		}
		if tail != nil {
			Block(key, nonce, ctrs[nx]+add, tail)
		}
		return
	}
	if len(msg) > foldMax*TagSize || len(msg)%TagSize != 0 {
		panic("cipher: a kernel call folds at most foldMax whole blocks")
	}
	nblk, p := len(msg)/TagSize, unsafe.SliceData(msg)
	d, s := unsafe.SliceData(dst), unsafe.SliceData(src)
	switch k := kernelFor(nblk); {
	case k == avx512ifma:
		keystream16ifma(key, nonce, ctrs, add, d, s, nx, tail, mac, p, nblk)
	case k == avx512:
		keystream16mac(key, nonce, ctrs, add, d, s, nx, tail, mac, p, nblk)
	case nb <= Lanes/2:
		keystream8mac(key, nonce, (*[Lanes / 2]uint32)(ctrs[:]), add, d, s, nx, tail, mac, p, nblk)
	default:
		// Two calls to a row, each folding half. Opening in place, the
		// second half may lie in the bytes the first call deciphers, o
		// bytes into msg on: the first then folds up to their end.
		h := nblk / 2
		if o := int(uintptr(unsafe.Pointer(&dst[wideSize/2])) - uintptr(unsafe.Pointer(p))); o > h*TagSize && o-wideSize/2 < len(msg) {
			h = min((o+TagSize-1)/TagSize, nblk)
		}
		keystream8mac(key, nonce, (*[Lanes / 2]uint32)(ctrs[:]), add, d, s, Lanes/2, nil, mac, p, h)
		keystream8mac(key, nonce, (*[Lanes / 2]uint32)(ctrs[Lanes/2:]), add, &dst[wideSize/2], &src[wideSize/2], nx-Lanes/2, tail, mac, unsafe.SliceData(msg[h*TagSize:]), nblk-h)
	}
}

// kernelFor is the kernel a call folding nblk blocks runs.
func kernelFor(nblk int) int {
	if kernel == avx512ifma && nblk < ifmaMin {
		return avx512
	}
	return kernel
}

// Blocks writes the ChaCha20 blocks of (key, nonce) at counters ctrs[0],
// …, ctrs[n-1] — any counters, in any order, repeated or not — to out,
// block i at out[i*BlockSize:], each the bytes Block writes for its
// counter; n <= Lanes, and out past block n-1 is left as it was. From
// wideMin blocks up, where there is a kernel, that is one call of it,
// XORing the blocks into zeros: a caller that needs many one-off blocks
// (one-time MAC keys, heads for XORKeyStreamMAC) gathers their counters
// and makes them sixteen at a time.
func Blocks(key *Key, nonce *[NonceSize]byte, ctrs *[Lanes]uint32, n int, out *[Lanes * BlockSize]byte) {
	keystream(key, nonce, ctrs, 0, out[:], zeros[:], n, nil, nil, nil)
}

// absorb takes msg into mac as MAC.Update does. Where there is a kernel,
// the whole blocks of a msg of foldMin bytes or more fold in a call of
// it with no blocks to XOR, whose keystream nobody reads: sixty-four
// blocks take about as long there as twenty through MAC.Update. That is
// how a seal's last chunk, and a chain's, is folded once there is no
// next call to ride in.
func absorb(mac *MAC, msg []byte) {
	for len(msg) >= foldMin {
		k := min(len(msg), foldMax*TagSize) &^ (TagSize - 1)
		keystream(&foldKey, &foldNonce, &laneRow, 0, nil, nil, 0, nil, mac, msg[:k])
		msg = msg[k:]
	}
	mac.Update(msg)
}

// xorWide is the loop under XORKeyStream and XORKeyStreamMAC: dst = src
// XOR the keystream that starts at byte skip of block ctr, and, with a
// mac, the ciphertext — dst if seal, else src — absorbed into it. Per
// chunk of up to 1 KiB that is one keystream call, which XORs the
// chunk's whole blocks from src into dst and hands back the keystream of
// a part block at its end, and which folds whole Poly1305 blocks of
// ciphertext on the side. Opening, a call folds the ciphertext up to
// the end of the chunk it deciphers, before the XOR, so that dst may be
// src. Sealing, the ciphertext exists only after the XOR, so a call
// folds what the calls before it enciphered; what is left at the end is
// folded here (absorb), or, with a chain ch, left to it (Chain.Sum) and
// folded by the first call of the next message sealed through ch — whose
// own first call has the chain's end to fold instead. What is not a
// whole block at the end goes through MAC.Update. Being fed from a
// buffer the loop is not tied to block boundaries either: it consumes
// all of src, so a fragment's tail costs a lane of a call that was being
// made anyway and not a Block of its own. len(dst) >= len(src), and dst
// and src are the same bytes or disjoint; ch is nil unless sealing;
// head, if not nil, is block ctr, made ahead of time.
func xorWide(key *Key, nonce *[NonceSize]byte, ctr uint32, skip int, dst, src []byte, mac *MAC, ch *Chain, head *[BlockSize]byte, seal bool) {
	n := len(src)
	if mac != nil && !seal && skip%TagSize != 0 && n > BlockSize-skip+wideSize && unsafe.SliceData(dst) == unsafe.SliceData(src) {
		// Opening in place, a Poly1305 block would straddle two calls,
		// the first of which deciphers its start: the MAC takes the
		// message first, in Go. core opens into its reassembly buffer,
		// never in place, and never comes here.
		mac.Update(src)
		mac = nil
	}
	// A run that starts mid-block takes its head from one block of its
	// own, so that every call after it XORs whole blocks from a block
	// boundary; a 1 008-byte fragment at skip 48, 32 or 16, as SuiteAEAD
	// lays them out, is a head and one call of 16 lanes. The head block
	// is the caller's if it made it, in a lane of a Blocks call beside
	// others, and one Block here if not. The head is XORed after the
	// first call, and its ciphertext joins the MAC's fold: opening, in
	// that call, with the chunk after it; sealing, in the call after
	// that, or in the chain.
	pos := 0
	if skip != 0 && n > 0 {
		pos = min(BlockSize-skip, n)
		if head == nil {
			head = new([BlockSize]byte)
			Block(key, nonce, ctr, head)
		}
		ctr++
	}
	hd := pos // head bytes not yet XORed
	open := mac != nil && !seal
	if open && pos == n {
		mac.Update(src) // no call to fold in
		mac, open = nil, false
	}
	var msg []byte // the ciphertext, which mac absorbs
	if mac != nil {
		msg = src
		if seal {
			msg = dst[:n]
		}
	}
	// Opening, the ciphertext of a part Poly1305 block at the end is kept
	// for MAC.Update at the end, as a kernel call may decipher it in
	// place first.
	var last [TagSize]byte
	if open {
		copy(last[:], msg[n&^(TagSize-1):])
	}
	// The next call folds fold into into: first the chain's end, if it
	// holds one, and then mac's message, from done on.
	var into *MAC
	var fold []byte
	chained := ch != nil && ch.tag != nil
	if chained {
		into, fold = ch.mac, ch.msg[:len(ch.msg)&^(TagSize-1)]
	}
	done := 0
	var tail [BlockSize]byte
	for {
		m := min(wideSize, n-pos)
		if m > 0 {
			if mac != nil && !chained {
				end := pos - hd // sealing, the ciphertext so far
				if open {
					end = pos + m
				}
				into, fold = mac, msg[done:end&^(TagSize-1)]
				done += len(fold)
			}
			s, d := src[pos:pos+m:pos+m], dst[pos:pos+m:pos+m]
			nx, t := m/BlockSize, (*[BlockSize]byte)(nil)
			if m%BlockSize != 0 {
				t = &tail
			}
			keystream(key, nonce, &laneRow, ctr, d, s, nx, t, into, fold)
			if t != nil {
				subtle.XORBytes(d[nx*BlockSize:], s[nx*BlockSize:], t[:])
			}
		}
		if hd > 0 {
			subtle.XORBytes(dst[:hd], src[:hd], head[skip:skip+hd])
			hd = 0
		}
		if chained && m > 0 {
			ch.finish(ch.msg[len(fold):])
			chained = false
		}
		if pos += m; pos >= n {
			break
		}
		ctr += Lanes
	}
	switch {
	case mac == nil:
	case open:
		mac.Update(last[:n&(TagSize-1)])
	case ch != nil && !chained:
		ch.held = n - done
	default:
		absorb(mac, msg[done:]) // a chain no call consumed keeps its own end
	}
}

// Chain carries the end of one sealed message into the kernel call that
// seals the next, so that Poly1305 over a fragment's last chunk runs in
// the shadow of the next fragment's keystream instead of alone. A tag
// sealed through a chain is only written once that call or Flush has
// run, so whoever seals a run of fragments through one chain flushes it
// before any of their tags is read. The chain keeps the MAC of the
// message it holds by pointer, and owns two MACs for its messages to
// take (MAC), so that no MAC state is copied on the way. The zero Chain
// is empty and ready.
type Chain struct {
	macs [2]MAC // the MACs MAC hands out
	mac  *MAC   // the MAC whose message ends in msg
	msg  []byte // the end of that message, not yet folded in
	tag  []byte // where its tag goes; nil while the chain is empty
	held int    // bytes the last seal left for the chain, until Sum
}

// MAC returns a MAC for the next message sealed through c, to be keyed
// with MAC.Init: one of the chain's own, never the one it holds.
func (c *Chain) MAC() *MAC {
	if c.mac == &c.macs[0] {
		return &c.macs[1]
	}
	return &c.macs[0]
}

// Sum writes mac's tag into tag: at once, or, if the seal of ct (the
// whole message mac has absorbed but for its end) left its last chunk
// for the chain, when the chain's next kernel call or Flush folds that
// chunk in. Until then the chain holds mac by pointer, so mac is
// c.MAC()'s or another that nobody touches meanwhile. The chain must be
// empty or have been consumed by that seal. A nil chain is mac.Sum.
func (c *Chain) Sum(mac *MAC, ct, tag []byte) {
	if c == nil || c.held == 0 {
		mac.Sum(tag)
		return
	}
	c.mac, c.msg, c.tag, c.held = mac, ct[len(ct)-c.held:], tag, 0
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
	absorb(c.mac, tail)
	c.mac.Sum(c.tag)
	c.mac, c.msg, c.tag = nil, nil, nil
}
