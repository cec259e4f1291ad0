package otp

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/checksum"
	"repro/internal/sim"
	"repro/internal/wire"
)

// FuzzHandleSegment feeds a receiving connection arbitrary segments.
// The input is a run of records, each a 2-byte big-endian length and
// that many bytes; a record whose length has its top bit set gets its
// checksum recomputed first, so mutated headers reach the receive path
// instead of dying at the checksum. No input may panic the connection
// or hold more out-of-order bytes than RecvWindow; once a filler closes
// the gaps the junk left, nothing stays held, and a valid message sent
// next arrives intact.
func FuzzHandleSegment(f *testing.F) {
	// Seeds are a real pair's data segments: a sender with a small MSS
	// writes a message into memory.
	var segs [][]byte
	snd := New(sim.NewScheduler(), inMemory(func(seg []byte) error {
		segs = append(segs, append([]byte(nil), seg...))
		return nil
	}), Config{ConnID: 1, MSS: 100})
	snd.peerWnd = 1 << 20
	if err := snd.Send(pattern(300)); err != nil {
		f.Fatal(err)
	}
	record := func(seg []byte, reseal bool) []byte {
		n := uint16(len(seg))
		if reseal {
			n |= 0x8000
		}
		return append(binary.BigEndian.AppendUint16(nil, n), seg...)
	}
	var inOrder, reversed []byte
	for i := range segs {
		inOrder = append(inOrder, record(segs[i], false)...)
		reversed = append(reversed, record(segs[len(segs)-1-i], true)...)
	}
	f.Add(inOrder)
	f.Add(reversed)
	f.Add(append(record(segs[2], true), record(segs[1], false)...))
	// Segments that overlap one another ahead of a gap, each within the
	// window on its own.
	var overlapping []byte
	for i := 1; i <= 4; i++ {
		seg := make([]byte, wire.OTPHeaderSize+3000)
		wire.PutOTP(seg, &wire.OTPHeader{Flags: wire.OTPData, Conn: 1, Seq: uint32(i), Len: 3000})
		overlapping = append(overlapping, record(seg, false)...)
	}
	f.Add(overlapping)

	f.Fuzz(func(t *testing.T, in []byte) {
		const window = 4096
		var got bytes.Buffer
		rcv := New(sim.NewScheduler(), drop, Config{ConnID: 1, RecvWindow: window})
		rcv.OnData = func(p []byte) { got.Write(p) }
		checkHeld := func() {
			held := 0
			for off, ref := range rcv.ooo {
				held += len(ref.Bytes())
				if off <= rcv.rcvNxt {
					t.Fatalf("segment at %d held behind rcvNxt %d", off, rcv.rcvNxt)
				}
			}
			if held != rcv.oooBytes || held > window {
				t.Fatalf("%d out-of-order bytes held (counted %d), window %d", held, rcv.oooBytes, window)
			}
		}
		for len(in) >= 2 {
			n := int(binary.BigEndian.Uint16(in) & 0x7FFF)
			reseal := in[0]&0x80 != 0
			in = in[2:]
			n = min(n, len(in))
			seg := append([]byte(nil), in[:n]...)
			in = in[n:]
			if reseal && len(seg) >= wire.OTPHeaderSize {
				seg[12], seg[13] = 0, 0
				binary.BigEndian.PutUint16(seg[12:14], checksum.Sum16(seg))
			}
			_ = rcv.HandleSegment(seg)
			checkHeld()
		}

		// Fill every gap up to the furthest held byte, then send the
		// message behind it.
		send := func(seq int64, payload []byte) {
			seg := make([]byte, wire.OTPHeaderSize+len(payload))
			copy(seg[wire.OTPHeaderSize:], payload)
			wire.PutOTP(seg, &wire.OTPHeader{Flags: wire.OTPData, Conn: 1, Seq: uint32(seq), Len: len(payload)})
			if err := rcv.HandleSegment(seg); err != nil {
				t.Fatal(err)
			}
		}
		end := rcv.rcvNxt
		for off, ref := range rcv.ooo {
			end = max(end, off+int64(len(ref.Bytes())))
		}
		send(rcv.rcvNxt, make([]byte, end-rcv.rcvNxt))
		if len(rcv.ooo) != 0 || rcv.oooBytes != 0 {
			t.Fatalf("%d segments (%d bytes) still held after the filler", len(rcv.ooo), rcv.oooBytes)
		}
		got.Reset()
		want := pattern(1500)
		for off := 0; off < len(want); off += 500 {
			send(rcv.rcvNxt, want[off:off+500])
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("after the junk the valid message arrived as %d bytes, want %d", got.Len(), len(want))
		}
	})
}
