package alf

import (
	"encoding/binary"

	"repro/internal/cipher"
	"repro/internal/ilp"
	"repro/internal/scramble"
	"repro/internal/wire"
)

// CipherSuite selects the data-manipulation cipher stage for a stream
// (paper §3, §6). All suites share the ALF property that matters: the
// keystream is position-addressable, so fragments decipher in any order
// and every 8-byte-aligned fragment offset is its own synchronization
// point.
type CipherSuite uint8

const (
	// SuiteNone (the zero value) sends cleartext; integrity is the
	// Internet checksum. Config.Key must be zero.
	SuiteNone CipherSuite = iota
	// SuiteScramble is the simulation keystream (internal/scramble's
	// splitmix64 in counter mode): a stand-in cipher that exercises the
	// fused datapath shape. Integrity is still the Internet checksum.
	SuiteScramble
	// SuiteAEAD is the real construction: ChaCha20 encryption with a
	// per-fragment Poly1305 tag (RFC 8439 primitives, internal/cipher).
	// The tag replaces the Internet checksum as the integrity pass —
	// the wire fragment is header ‖ ciphertext ‖ 16-byte tag, the
	// header's ADU-checksum field is zero, and a fragment that fails
	// verification is discarded as if lost (recovery re-requests it).
	// Note the scope: this authenticates the datapath against
	// corruption and casual tampering; it is not a vetted secure
	// channel (no handshake, no key rotation, no replay window beyond
	// the ADU name space).
	SuiteAEAD
)

// String returns the suite name.
func (cs CipherSuite) String() string {
	return enumName([]string{SuiteNone: "none", SuiteScramble: "scramble", SuiteAEAD: "aead"}, cs, "invalid-suite")
}

// suiteOps is one row of the cipher-suite table: everything the
// datapath knows about a CipherSuite. prepare resolves Config.Suite to its
// row once, and the sender's packetize loop and the receiver's place
// call go through it, so neither names a suite. Every function takes
// the ADU's name and the fragment's byte offset within the ADU: each
// suite's keystream is addressed by (key, name, offset), which is what
// lets fragments be sealed and opened in any order.
type suiteOps struct {
	// flags are the wire.SuiteMask bits every fragment carries; the
	// receiver drops a fragment whose bits differ from its own suite's.
	// flags.Trailer() is how many bytes follow each payload on the wire.
	flags wire.Flags
	// aduCheck says the header's ADU-checksum field is in use: seal and
	// open return partial sums, and the receiver folds and compares
	// them when the ADU completes.
	aduCheck bool
	// chained says the trailer is a tag that seal may finish through the
	// sender's cipher.Chain, which a sender of the suite then owns: the
	// MAC's last chunk rides in the kernel call that seals the next
	// fragment, and packetize flushes the chain before it stamps. Both
	// ends of such a suite also keep a runLanes, whose blocks seal and
	// open take their tag keys and heads from (sealState, openState).
	chained bool
	// seal is the sender's fused pass over one fragment of an ADU of
	// total bytes: src is plaintext, dst receives len(src) wire bytes
	// followed by the trailer. It returns the fragment's partial
	// plaintext checksum. st is the sender's chain and lanes, nil unless
	// the suite is chained.
	seal func(c *Config, st *sealState, name uint64, off, total int, dst, src []byte) uint64
	// sealParity fills the trailer of an FEC parity blob whose payload
	// (the XOR of its group's wire payloads) is blob[:n]. Like
	// openParity it is nil, and never called, when there is no trailer.
	sealParity func(c *Config, name uint64, off int, blob []byte, n int)
	// open is the receiver's fused pass: src is a fragment's wire
	// payload, dst its place in the reassembly buffer of an ADU of total
	// bytes. It returns the partial plaintext checksum and whether tag,
	// the fragment's trailer, verifies. A nil tag means src was rebuilt
	// from FEC parity: there is no trailer, and nothing to verify — the
	// parity blob and every surviving member were verified on arrival
	// and XOR is the only arithmetic between them. st is the receiver's
	// lanes and MAC, nil unless the suite is chained.
	open func(c *Config, st *openState, name uint64, off, total int, dst, src, tag []byte) (uint64, bool)
	// openParity verifies a parity blob's trailer.
	openParity func(c *Config, name uint64, off int, blob, tag []byte) bool
	// rekey XORs the keystream for ADU offsets [off, off+len(b)) into
	// b, turning plaintext back into wire bytes (or the reverse). FEC
	// reconstruction uses it to fold surviving members, held as
	// plaintext, out of the parity without a scratch copy.
	rekey func(c *Config, name uint64, off int, b []byte)
}

// suites is the table, indexed by CipherSuite.
var suites = [...]suiteOps{
	SuiteNone: {
		aduCheck: true,
		seal: func(_ *Config, _ *sealState, _ uint64, _, _ int, dst, src []byte) uint64 {
			return ilp.FusedCopySum(dst, src)
		},
		open: func(_ *Config, _ *openState, _ uint64, _, _ int, dst, src, _ []byte) (uint64, bool) {
			return ilp.FusedCopySum(dst, src), true
		},
		rekey: func(*Config, uint64, int, []byte) {},
	},
	SuiteScramble: {
		flags:    wire.FlagEnciphered,
		aduCheck: true,
		seal: func(c *Config, _ *sealState, name uint64, off, _ int, dst, src []byte) uint64 {
			c.ledger.stream(c.Key^name, &[cipher.NonceSize]byte{}, off, src)
			return ilp.FusedEncryptCopySum(dst, src, c.Key^name, off)
		},
		open: func(c *Config, _ *openState, name uint64, off, _ int, dst, src, _ []byte) (uint64, bool) {
			return ilp.FusedDecryptCopySum(dst, src, c.Key^name, off), true
		},
		rekey: func(c *Config, name uint64, off int, b []byte) {
			scramble.XORAt(c.Key^name, off, b)
		},
	},
	// SuiteAEAD: each fragment's ciphertext is produced straight into
	// its wire buffer while the Poly1305 accumulator runs in the same
	// fused loop (one load and one store per word, §6), and the tag
	// lands right after the ciphertext. FEC parity is the XOR of the
	// group's ciphertexts — not the tags — and carries its own tag over
	// the blob, so a reconstructed fragment is authenticated
	// transitively. There is no ADU checksum: the tags are the
	// integrity pass. packetize seals all of an ADU's fragments before it
	// stamps or emits any, so the kernel call that starts fragment k+1
	// may fold the end of fragment k into k's tag (the sender's chain).
	// A data fragment's tag key and head come from its run's lanes, at
	// both ends; a parity tag's key is one Block of its own.
	SuiteAEAD: {
		flags:   wire.FlagAEAD,
		chained: true,
		seal: func(c *Config, st *sealState, name uint64, off, total int, dst, src []byte) uint64 {
			nonce := aeadNonce(c.StreamID, name)
			c.ledger.tag(keyPrint(&c.aeadKey), &nonce, tagCtrData, off, src)
			c.ledger.stream(keyPrint(&c.aeadKey), &nonce, off, src)
			mac := st.chain.MAC()
			head := st.lanes.dataMAC(c, &nonce, name, off, total, mac)
			ilp.FusedSeal(dst, src, &c.aeadKey, &nonce, off, mac, &st.chain, head)
			return 0
		},
		sealParity: func(c *Config, name uint64, off int, blob []byte, n int) {
			nonce := aeadNonce(c.StreamID, name)
			c.ledger.tag(keyPrint(&c.aeadKey), &nonce, tagCtrParity, off, blob[:n])
			var mac cipher.MAC
			initTagMAC(&mac, &c.aeadKey, &nonce, tagCtrParity+uint32(off/8))
			mac.Update(blob[:n])
			mac.Sum(blob[n : n+wire.TagSize])
		},
		// The plaintext lands in the reassembly buffer before the
		// verdict, which is safe because the caller accounts the range
		// as received only on success — a forged fragment leaves no
		// trace and the range stays recoverable.
		open: func(c *Config, st *openState, name uint64, off, total int, dst, src, tag []byte) (uint64, bool) {
			nonce := aeadNonce(c.StreamID, name)
			if tag == nil {
				ilp.FusedDecryptCopyVerify(dst, src, &c.aeadKey, &nonce, off, nil)
				return 0, true
			}
			head := st.lanes.dataMAC(c, &nonce, name, off, total, &st.mac)
			ilp.FusedOpen(dst, src, &c.aeadKey, &nonce, off, &st.mac, head)
			return 0, st.mac.Verify(tag)
		},
		openParity: func(c *Config, name uint64, off int, blob, tag []byte) bool {
			nonce := aeadNonce(c.StreamID, name)
			var mac cipher.MAC
			initTagMAC(&mac, &c.aeadKey, &nonce, tagCtrParity+uint32(off/8))
			mac.Update(blob)
			return mac.Verify(tag)
		},
		rekey: func(c *Config, name uint64, off int, b []byte) {
			nonce := aeadNonce(c.StreamID, name)
			cipher.XORKeyStream(&c.aeadKey, &nonce, off, b, b)
		},
	},
}

// ChaCha20 block-counter domains. The payload keystream for an ADU
// starts at counter 1 (cipher.PayloadCounter), growing upward by one
// per 64 bytes; the one-time Poly1305 tag keys live in two high ranges
// indexed by fragment offset so no counter is ever used for both
// keystream and tag-key material:
//
//	payload keystream   1 + off/64        (off < 2^33 keeps it below 2^30)
//	data fragment tags  2^30 + off/8
//	parity tags         2^31 + off/8
//
// Validate caps MaxADU at 2^33 under SuiteAEAD so the domains cannot
// collide. Which block comes from where: a fragment's payload keystream
// comes sixteen blocks to a kernel call in the keystream loop; its data
// tag key, and its head — the payload block it starts in, if it starts
// mid-block — are lanes of its run's kernel calls (runLanes), at both
// ends. Three stay out of the lanes and scalar: a data fragment at an
// offset that is not a whole number of the receiver's fragments (a
// sender with another MTU) makes its tag key and head one Block each, as
// does a parity tag's key (one per FEC group), and FEC reconstruction's
// rekey is the plain keystream loop, with no MAC and so no head.
const (
	tagCtrData   = 1 << 30
	tagCtrParity = 1 << 31
)

// aeadMaxADU is the largest ADU the counter-domain layout supports. It
// is 64 bits wide whatever int is: where int has 32, no MaxADU reaches
// it.
const aeadMaxADU int64 = 1 << 33

// aeadNonce builds the per-ADU nonce: the stream id and the ADU name,
// bytes 1-3 zero. Names are sender-assigned and sequential, so (key,
// nonce) pairs never repeat within a stream, and the stream id separates
// streams sharing a key.
func aeadNonce(stream byte, name uint64) [cipher.NonceSize]byte {
	var n [cipher.NonceSize]byte
	n[0] = stream
	binary.BigEndian.PutUint64(n[4:12], name)
	return n
}

// flowKey derives flow id's stream key from its sharded endpoint's key,
// so that no two flows share a keystream: the low byte of the id, the
// flow's StreamID, repeats every 256 flows. The key is the first eight
// bytes of one ChaCha20 block under the endpoint's expanded key, with id
// where a data nonce has its ADU name and byte 1 set, which a data nonce
// never has (aeadNonce). A cleartext flow's zero key stays zero.
func flowKey(key uint64, id FlowID) uint64 {
	if key == 0 {
		return 0
	}
	k := cipher.ExpandKey(key)
	var nonce [cipher.NonceSize]byte
	nonce[1] = 1
	binary.BigEndian.PutUint64(nonce[4:12], uint64(id))
	var blk [cipher.BlockSize]byte
	cipher.Block(&k, &nonce, 0, &blk)
	return max(binary.LittleEndian.Uint64(blk[:8]), 1) // an enciphering suite's key is not zero
}

// initTagMAC keys mac with the fragment's one-time Poly1305 key, from
// the ChaCha20 block at the given counter (RFC 8439 §2.6 shape, one key
// per fragment instead of per message), a ready accumulator. Everything
// stays on the stack: the per-fragment hot path allocates nothing.
func initTagMAC(mac *cipher.MAC, key *cipher.Key, nonce *[cipher.NonceSize]byte, ctr uint32) {
	var otk [32]byte
	cipher.TagKey(key, nonce, ctr, &otk)
	mac.Init(&otk)
}

// runLanes holds the one-off ChaCha20 blocks a run of fragments needs
// besides its payload keystream, made cipher.Lanes to a kernel call
// (cipher.Blocks) instead of one Block each. A run is up to cipher.Lanes
// consecutive fragments of one ADU at the endpoint's fragment size, and
// each takes a lane for its data tag key and, if it starts mid-block,
// one for its head: at most two calls a run. An 8 KiB ADU at 1 008-byte
// fragments is one run of nine needing 9 + 6 lanes, one call where it
// took 15 Blocks.
//
// Both ends keep one for the (name, run) they last needed: the sender
// fills it at each run's first fragment, the receiver at the first
// fragment it sees of a run, and the rest of the run finds its lanes
// there. A receiver whose fragments arrive in any other order refills
// it, which costs one fill per fragment at most, as a fill covers at
// most cipher.Lanes fragments whatever a header claims.
type runLanes struct {
	name      uint64
	run       int
	n         int                 // fragments the lanes cover; 0 while empty
	key, head [cipher.Lanes]uint8 // fragment i's tag-key lane; its head lane or noHead
	ks        [2][cipher.Lanes * cipher.BlockSize]byte
}

const noHead = 0xff

// dataMAC keys mac as the data-tag MAC of the fragment of ADU name at
// off, in an ADU of total bytes, and returns its head block (nil if it
// starts on a block boundary), filling l with the fragment's run first
// unless it holds it. A fragment at an offset that is not a whole number
// of fragments makes both with Block instead, as does one whose header
// puts it past the fragments its run's fill covered (at the ADU's end).
func (l *runLanes) dataMAC(c *Config, nonce *[cipher.NonceSize]byte, name uint64, off, total int, mac *cipher.MAC) *[cipher.BlockSize]byte {
	fp := c.fragPayload()
	if off%fp == 0 {
		run, i := off/fp/cipher.Lanes, off/fp%cipher.Lanes
		if l.n == 0 || l.name != name || l.run != run {
			l.fill(c, nonce, name, run, total)
		}
		if i < l.n {
			var head *[cipher.BlockSize]byte
			if h := l.head[i]; h != noHead {
				head = l.lane(h)
			}
			mac.Init((*[cipher.KeySize]byte)(l.lane(l.key[i])[:cipher.KeySize]))
			return head
		}
	}
	initTagMAC(mac, &c.aeadKey, nonce, tagCtrData+uint32(off/8))
	return nil
}

// fill makes the lanes of run of ADU name: fragment i of the run, at
// off, takes a lane at counter tagCtrData + off/8 and, if off is not on
// a block boundary, the next at the payload counter of off. The run
// holds every fragment the sender makes of an ADU of total bytes — the
// first always, the others while they start inside it.
func (l *runLanes) fill(c *Config, nonce *[cipher.NonceSize]byte, name uint64, run, total int) {
	fp := c.fragPayload()
	var ctrs [2][cipher.Lanes]uint32
	lanes := 0
	l.name, l.run, l.n = name, run, 0
	for i := 0; i < cipher.Lanes; i++ {
		off := (run*cipher.Lanes + i) * fp
		if i > 0 && off >= total {
			break
		}
		l.key[i], l.head[i] = uint8(lanes), noHead
		ctrs[lanes/cipher.Lanes][lanes%cipher.Lanes] = tagCtrData + uint32(off/8)
		lanes++
		if off%cipher.BlockSize != 0 {
			l.head[i] = uint8(lanes)
			ctrs[lanes/cipher.Lanes][lanes%cipher.Lanes] = cipher.PayloadCounter(off)
			lanes++
		}
		l.n++
	}
	for k := 0; k*cipher.Lanes < lanes; k++ {
		cipher.Blocks(&c.aeadKey, nonce, &ctrs[k], min(lanes-k*cipher.Lanes, cipher.Lanes), &l.ks[k])
	}
}

// lane is lane i of the fill's calls.
func (l *runLanes) lane(i uint8) *[cipher.BlockSize]byte {
	return (*[cipher.BlockSize]byte)(l.ks[i/cipher.Lanes][int(i%cipher.Lanes)*cipher.BlockSize:])
}

// sealState is what a sender of a chained suite keeps behind its one
// pointer: the chain its fragments are sealed through, and its lanes.
type sealState struct {
	chain cipher.Chain
	lanes runLanes
}

// openState is the receiver's counterpart: its lanes, and the MAC of
// the fragment it opens, keyed in place.
type openState struct {
	lanes runLanes
	mac   cipher.MAC
}

// flowCrypto is a sharded flow's sealState and its receiver's openState
// in one allocation, so that an enciphering flow costs AddFlow one.
type flowCrypto struct {
	seal sealState
	open openState
}

// flush writes the tag the chain still holds. A sender of a suite
// without a chain has a nil sealState and nothing to flush.
func (st *sealState) flush() {
	if st != nil {
		st.chain.Flush()
	}
}
