//go:build nonceledger

package alf

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sync"

	"repro/internal/cipher"
)

// The nonce ledger, built with -tags nonceledger (make ledger): every
// seal of an endpoint — a lone sender, or all the flows of a sharded
// one, which share it — records the byte each keystream byte
// enciphered, per 64-byte block of stream offset under (key
// fingerprint, nonce), and a hash of what each one-time tag key, at
// (key fingerprint, nonce, counter domain, offset), authenticated. A
// seal that reuses either for other bytes, wherever its range starts,
// panics, which fails the test that ran it; the same bytes again (a
// recomputed retransmission) pass.
type ledger struct{ *nonceLedger }

type nonceLedger struct {
	mu     sync.Mutex // shards seal from parallel workers
	tags   map[ledgerPos]uint64
	blocks map[ledgerPos]*ledgerBytes // domain 0, off the block's index
}

type ledgerPos struct {
	key    uint64
	nonce  [cipher.NonceSize]byte
	domain uint32
	off    int
}

// ledgerBytes is what a block of keystream enciphered: byte i is b[i]
// if bit i of seen is set.
type ledgerBytes struct {
	seen uint64
	b    [64]byte
}

// orNew is l, or a new ledger if l has none yet.
func (l ledger) orNew() ledger {
	if l.nonceLedger == nil {
		l.nonceLedger = &nonceLedger{tags: make(map[ledgerPos]uint64), blocks: make(map[ledgerPos]*ledgerBytes)}
	}
	return l
}

// tag records that the tag key at (key, nonce, domain, off)
// authenticated b, and panics if it authenticated other bytes before.
func (l ledger) tag(key uint64, nonce *[cipher.NonceSize]byte, domain uint32, off int, b []byte) {
	if l.nonceLedger == nil {
		return
	}
	h := fnv.New64a()
	h.Write(b)
	pos := ledgerPos{key, *nonce, domain, off}
	l.mu.Lock()
	defer l.mu.Unlock()
	if old, ok := l.tags[pos]; ok && old != h.Sum64() {
		panic(fmt.Sprintf("nonce ledger: key %#x nonce %x domain %#x offset %d: a tag key for other bytes", key, nonce[:], domain, off))
	}
	l.tags[pos] = h.Sum64()
}

// stream records that the keystream of (key, nonce) from offset off
// enciphered b, and panics if any of its bytes enciphered another byte
// before.
func (l ledger) stream(key uint64, nonce *[cipher.NonceSize]byte, off int, b []byte) {
	if l.nonceLedger == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, c := range b {
		pos := ledgerPos{key, *nonce, 0, (off + i) / 64}
		e, j := l.blocks[pos], (off+i)%64
		if e == nil {
			e = new(ledgerBytes)
			l.blocks[pos] = e
		}
		if e.seen&(1<<j) != 0 && e.b[j] != c {
			panic(fmt.Sprintf("nonce ledger: key %#x nonce %x offset %d: keystream reused for other bytes", key, nonce[:], off+i))
		}
		e.seen, e.b[j] = e.seen|1<<j, c
	}
}

// keyPrint is a fingerprint of an expanded key for the ledger.
func keyPrint(k *cipher.Key) uint64 {
	var b [cipher.KeySize]byte
	cipher.XORKeyStream(k, &[cipher.NonceSize]byte{0xff}, 0, b[:], b[:])
	return binary.LittleEndian.Uint64(b[:])
}
