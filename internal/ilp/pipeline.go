package ilp

import (
	"encoding/binary"

	"repro/internal/checksum"
	"repro/internal/scramble"
)

// A WordStage is one data-manipulation step expressed at word
// granularity: it receives each 64-bit word of the data (little-endian
// memory order) and returns the transformed word. Stages may keep state
// (checksums accumulate, keystreams advance). Reset prepares the stage
// for a fresh buffer.
//
// Expressing manipulations this way is what the paper means by an
// ILP-compatible architecture: because each stage is defined per data
// word with no inter-word ordering constraints, an implementor is free
// to run all stages inside one loop (FusedPath) or one stage per pass
// (LayeredPath) — the results are identical.
type WordStage interface {
	// Word transforms one 64-bit word.
	Word(w uint64) uint64
	// Tail transforms the final 0..7 bytes in place.
	Tail(b []byte)
	// Reset clears per-buffer state.
	Reset()
}

// IdentityStage models a pure copy step (a layer that moves data without
// transforming it, e.g. the kernel/user boundary crossing).
type IdentityStage struct{}

// Word implements WordStage.
func (IdentityStage) Word(w uint64) uint64 { return w }

// Tail implements WordStage.
func (IdentityStage) Tail([]byte) {}

// Reset implements WordStage.
func (IdentityStage) Reset() {}

// ChecksumStage accumulates the Internet checksum of the words passing
// through it without modifying them (the transport error-detection
// pass). Words go into a checksum.Wide as they are; the conversion to
// network order happens once, at Tail or Sum.
type ChecksumStage struct {
	words checksum.Wide
	tail  uint64 // the final 0..7 bytes' partial sum, network order
}

// Word implements WordStage.
func (s *ChecksumStage) Word(w uint64) uint64 {
	s.words = s.words.Add(w)
	return w
}

// Tail implements WordStage.
func (s *ChecksumStage) Tail(b []byte) { s.tail = checksum.Accumulate(0, b) }

// Reset implements WordStage.
func (s *ChecksumStage) Reset() { *s = ChecksumStage{} }

// Sum returns the Internet checksum of everything seen since Reset.
func (s *ChecksumStage) Sum() uint16 { return ^checksum.Fold(s.words.Sum() + s.tail) }

// DecryptStage XORs the session keystream through the data (the
// encryption layer's pass). idx is the keystream word the next Word
// takes; Reset rewinds it to 0.
type DecryptStage struct {
	Key uint64
	idx uint64
}

// NewDecryptStage returns a decrypt stage for key.
func NewDecryptStage(key uint64) *DecryptStage { return &DecryptStage{Key: key} }

// Word implements WordStage.
func (s *DecryptStage) Word(w uint64) uint64 {
	w ^= scramble.WordAt(s.Key, s.idx)
	s.idx++
	return w
}

// Tail implements WordStage.
func (s *DecryptStage) Tail(b []byte) { scramble.XORAt(s.Key, int(s.idx*8), b) }

// Reset implements WordStage.
func (s *DecryptStage) Reset() { s.idx = 0 }

// SwapStage byte-swaps each 32-bit half of the word — the shape of a
// presentation step that converts between byte orders (the cheap core
// of XDR-style conversion).
type SwapStage struct{}

// Word implements WordStage.
func (SwapStage) Word(w uint64) uint64 {
	const mA = 0x00ff00ff00ff00ff
	// bswap32 on both halves: rotate bytes via masks.
	w = (w&mA)<<8 | (w>>8)&mA
	w = (w&0x0000ffff0000ffff)<<16 | (w>>16)&0x0000ffff0000ffff
	return w
}

// Tail implements WordStage: partial words are left unswapped (a real
// converter would pad; for pipeline measurement the tail is <8 bytes).
func (SwapStage) Tail([]byte) {}

// Reset implements WordStage.
func (SwapStage) Reset() {}

// FusedPath runs every stage over each word inside a single pass from
// src to dst: one load and one store per word regardless of stage
// count. len(dst) must be >= len(src).
func FusedPath(dst, src []byte, stages []WordStage) {
	for _, s := range stages {
		s.Reset()
	}
	n := len(src)
	i := 0
	for ; n-i >= 8; i += 8 {
		w := binary.LittleEndian.Uint64(src[i:])
		for _, s := range stages {
			w = s.Word(w)
		}
		binary.LittleEndian.PutUint64(dst[i:], w)
	}
	if i < n {
		copy(dst[i:n], src[i:n])
		for _, s := range stages {
			s.Tail(dst[i:n])
		}
	}
}

// LayeredPath runs one full memory pass per stage, bouncing between dst
// and a scratch buffer, the way a strictly layered implementation
// processes a packet (each layer reads the data from memory and writes
// it back). The final result always lands in dst. scratch must be at
// least len(src) bytes; len(dst) likewise.
func LayeredPath(dst, scratch, src []byte, stages []WordStage) {
	for _, s := range stages {
		s.Reset()
	}
	n := len(src)
	// Arrange buffers so the last pass writes dst.
	cur := src
	bufs := [2][]byte{dst[:n], scratch[:n]}
	// If the stage count is even, the first write must go to scratch.
	sel := 0
	if len(stages)%2 == 0 {
		sel = 1
	}
	if len(stages) == 0 {
		WordCopy(dst, src)
		return
	}
	for _, s := range stages {
		out := bufs[sel]
		sel ^= 1
		i := 0
		for ; n-i >= 8; i += 8 {
			w := binary.LittleEndian.Uint64(cur[i:])
			binary.LittleEndian.PutUint64(out[i:], s.Word(w))
		}
		if i < n {
			copy(out[i:], cur[i:n])
			s.Tail(out[i:n])
		}
		cur = out
	}
}

// StandardStages builds the canonical receive-path stage list of depth
// k, in the order the layers appear on receive:
//
//	k=1: copy (net buffer -> host memory)
//	k=2: + transport checksum
//	k=3: + session decryption
//	k=4: + presentation byte-order conversion
//	k=5: + application-space move (second copy)
//
// The returned checksum stage (nil when k < 2) lets callers read the
// verification result.
func StandardStages(k int, key uint64) ([]WordStage, *ChecksumStage) {
	var stages []WordStage
	var ck *ChecksumStage
	if k >= 1 {
		stages = append(stages, IdentityStage{})
	}
	if k >= 2 {
		ck = &ChecksumStage{}
		stages = append(stages, ck)
	}
	if k >= 3 {
		stages = append(stages, NewDecryptStage(key))
	}
	if k >= 4 {
		stages = append(stages, SwapStage{})
	}
	if k >= 5 {
		stages = append(stages, IdentityStage{})
	}
	return stages, ck
}
