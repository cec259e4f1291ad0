package atm

import (
	"bytes"
	"testing"
)

// FuzzCell feeds the reassembler arbitrary cells, 53 bytes at a time.
// When the input's first byte is odd, each cell's HEC and CRC are
// recomputed first, so mutated SAR headers, lengths and sequence
// numbers reach the state machine instead of dying at the checks. No
// input may panic it, grow a partial message past MaxMessage or hold
// more partial messages than there are message IDs, and a valid
// message segmented after the junk must still arrive intact.
func FuzzCell(f *testing.F) {
	seed := func(reseal byte, msgs ...[]byte) []byte {
		out := []byte{reseal}
		s := NewSegmenter(7)
		for _, m := range msgs {
			for _, c := range segmentAll(s, m) {
				out = append(out, c...)
			}
		}
		return out
	}
	f.Add(seed(0, bytes.Repeat([]byte("cell"), 50)))
	f.Add(seed(1, []byte("single"), bytes.Repeat([]byte{0xA5}, 200)))
	f.Add(seed(1, bytes.Repeat([]byte{1}, 700), nil, bytes.Repeat([]byte{2}, 45)))
	f.Fuzz(func(t *testing.T, in []byte) {
		const maxMsg = 512
		var got []byte
		r := NewReassembler(7, func(_ uint16, msg []byte) { got = msg })
		r.MaxMessage = maxMsg
		if len(in) == 0 {
			return
		}
		reseal := in[0]&1 == 1
		for in = in[1:]; len(in) > 0; {
			n := min(len(in), CellSize)
			cell := append([]byte(nil), in[:n]...)
			in = in[n:]
			if reseal && n == CellSize {
				cell[4] = hec(cell)
				p := cell[HeaderSize:]
				li := p[PayloadLen-2] & 0x3F
				p[PayloadLen-2], p[PayloadLen-1] = li, 0
				crc := crc10(0, p[:PayloadLen-1])
				p[PayloadLen-2] = li | byte(crc>>8)<<6
				p[PayloadLen-1] = byte(crc)
			}
			_ = r.Cell(cell)
			if len(r.partial) > 1<<10 {
				t.Fatalf("%d partial messages, more than there are message IDs", len(r.partial))
			}
			for mid, pm := range r.partial {
				if len(pm.buf) > maxMsg {
					t.Fatalf("message %d holds %d bytes, past MaxMessage %d", mid, len(pm.buf), maxMsg)
				}
			}
		}
		want := bytes.Repeat([]byte("intact"), 40)
		got = nil
		for _, c := range segmentAll(NewSegmenter(7), want) {
			if err := r.Cell(c); err != nil {
				t.Fatalf("valid cell after the junk: %v", err)
			}
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("after the junk the valid message arrived as %q", got)
		}
	})
}
