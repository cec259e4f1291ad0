package main

import (
	"bytes"
	"fmt"
)

// ledger is the harness's correctness record for one repetition. Every
// ADU the harness submits gets a sequential tag; its payload is a
// deterministic function of (seed, tag); every delivery is compared
// byte for byte against that function and counted exactly once. The
// ledger also keeps each tag's submit time, so ADU latency comes from
// the same record that proves the ADU was the right one.
//
// Payloads cost nothing to generate: payload(tag) is a window into one
// block of seeded pseudo-random bytes, at an offset mixed from (seed,
// tag). Two tags almost never share an offset, so a fragment placed in
// the wrong ADU, or at the wrong offset of the right one, fails the
// comparison; Sender.Send copies the window out before it returns, so
// the block is never aliased by the transport.
type ledger struct {
	seed  uint64
	size  int
	block []byte // size + ledgerSlide bytes of xorshift output

	// state[tag] is the submit time in ns (>0) while the ADU is
	// outstanding, stateDelivered once verified, stateLost once the
	// receiver gave it up.
	state []int64

	submitted, settled int64 // settled: delivered (right or wrong bytes) or lost
	delivered          int64 // verified byte for byte, first delivery only
	lost, duplicate    int64
	corrupt            int64 // wrong bytes, wrong length, or a tag never submitted
}

const (
	ledgerSlide    = 1 << 16 // payload windows start anywhere in this range (8-aligned)
	stateDelivered = -1
	stateLost      = -2
)

// newLedger builds the payload block for aduBytes-sized ADUs. tagHint
// presizes the per-tag record so steady state does not grow it.
func newLedger(seed uint64, aduBytes, tagHint int) *ledger {
	l := &ledger{seed: seed, size: aduBytes, state: make([]int64, 0, tagHint)}
	l.block = make([]byte, aduBytes+ledgerSlide)
	x := seed*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03
	for i := range l.block {
		if i%8 == 0 {
			x ^= x >> 12
			x ^= x << 25
			x ^= x >> 27
		}
		l.block[i] = byte(x * 0x2545F4914F6CDD1D >> (8 * uint(i%8)))
	}
	return l
}

// reset forgets every tag but keeps the payload block and capacity, so
// one ledger serves all repetitions of a workload.
func (l *ledger) reset() {
	block, state := l.block, l.state[:0]
	*l = ledger{seed: l.seed, size: l.size, block: block, state: state}
}

// payload returns the bytes ADU tag must carry. The slice aliases the
// ledger's block: callers must not write to it.
func (l *ledger) payload(tag uint64) []byte {
	h := (tag + l.seed) * 0x9E3779B97F4A7C15
	off := int(h>>40) % ledgerSlide &^ 7
	return l.block[off : off+l.size]
}

// submit records the next tag as outstanding since now (ns, > 0) and
// returns it with its payload.
func (l *ledger) submit(now int64) (uint64, []byte) {
	tag := uint64(len(l.state))
	l.state = append(l.state, now)
	l.submitted++
	return tag, l.payload(tag)
}

// unsubmit withdraws the most recent submit (the transport refused it).
func (l *ledger) unsubmit() {
	l.state = l.state[:len(l.state)-1]
	l.submitted--
}

// deliver checks one delivered ADU and returns its latency in ns, or
// -1 if the delivery was a duplicate, corrupt, or for an unknown tag.
// A known tag settles on its first delivery whether or not the bytes
// were right, so one bad ADU counts once (as corrupt), not twice.
func (l *ledger) deliver(tag uint64, data []byte, now int64) int64 {
	if tag >= uint64(len(l.state)) {
		l.corrupt++
		return -1
	}
	at := l.state[tag]
	switch at {
	case stateDelivered:
		l.duplicate++
		return -1
	case stateLost:
		l.lost-- // reported lost, then delivered after all: it counts as delivered
	default:
		l.settled++
	}
	l.state[tag] = stateDelivered
	if !bytes.Equal(data, l.payload(tag)) {
		l.corrupt++
		return -1
	}
	l.delivered++
	if at <= 0 {
		return -1
	}
	return now - at
}

// lose records that the receiver abandoned the ADU with this tag.
func (l *ledger) lose(tag uint64) {
	if tag < uint64(len(l.state)) && l.state[tag] > 0 {
		l.state[tag] = stateLost
		l.lost++
		l.settled++
	}
}

// outstanding is the closed loop's window occupancy: submitted ADUs
// neither delivered nor given up.
func (l *ledger) outstanding() int64 { return l.submitted - l.settled }

// failed is the numerator of failed_frac: every submitted ADU that was
// not delivered intact exactly once, plus every delivery that should
// not have happened.
func (l *ledger) failed() int64 {
	return l.lost + l.duplicate + l.corrupt + l.outstanding()
}

func (l *ledger) String() string {
	return fmt.Sprintf("submitted %d delivered %d lost %d duplicate %d corrupt %d undelivered %d",
		l.submitted, l.delivered, l.lost, l.duplicate, l.corrupt, l.outstanding())
}
