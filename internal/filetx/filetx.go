// Package filetx is the paper's file-transfer application (§5): the
// sender labels every ADU with the location it will occupy in the
// receiver's file, so the receiver can place ADUs as they arrive —
// out of order, with gaps — instead of buffering behind a loss.
//
// The placement label is the ADU tag. For image-mode transfer the
// receiver offset equals the sender offset; when a presentation
// conversion changes element sizes, the sender converts each record
// and takes the receiver's offsets from the encoded lengths
// (PlanConverted) — "the sender must perform at least enough of the
// conversion to be able to compute, in terms meaningful to the
// receiver, where the ADU is to be delivered."
package filetx

import (
	"errors"
	"fmt"
	"sort"

	alf "repro/internal/core"
	"repro/internal/xcode"
)

// Errors.
var (
	ErrOverlap = errors.New("filetx: ADU overlaps data already written")
	ErrBounds  = errors.New("filetx: ADU outside file bounds")
)

// Chunk is one planned ADU of a transfer: a source range and the
// receiver-file offset it will occupy.
type Chunk struct {
	SrcOff  int // offset in the sender's file
	SrcLen  int
	DstOff  int // offset in the receiver's file (the ADU tag)
	DstLen  int // length after conversion (== SrcLen for image mode)
	Payload []byte
}

// Plan splits an image-mode (raw) transfer into ADU-sized chunks whose
// receiver offsets equal their sender offsets.
func Plan(data []byte, aduSize int) []Chunk {
	if aduSize <= 0 {
		aduSize = 8192
	}
	var chunks []Chunk
	for off := 0; off < len(data) || (off == 0 && len(data) == 0); off += aduSize {
		end := off + aduSize
		if end > len(data) {
			end = len(data)
		}
		chunks = append(chunks, Chunk{
			SrcOff: off, SrcLen: end - off,
			DstOff: off, DstLen: end - off,
			Payload: data[off:end],
		})
		if len(data) == 0 {
			break
		}
	}
	return chunks
}

// PlanConverted plans a transfer of integer records where the receiver
// stores each chunk in codec syntax: the sender converts each record up
// front, and the length of its encoding is the chunk's size at the
// receiver, so each ADU knows its exact destination offset even though
// the converted sizes vary per element. The payload of each chunk is
// the converted (transfer-syntax) bytes.
func PlanConverted(records [][]int32, codec xcode.Codec) ([]Chunk, error) {
	var chunks []Chunk
	dst := 0
	src := 0
	for i, rec := range records {
		enc, err := codec.EncodeValue(nil, xcode.Int32sValue(rec))
		if err != nil {
			return nil, fmt.Errorf("filetx: encode record %d: %w", i, err)
		}
		chunks = append(chunks, Chunk{
			SrcOff: src, SrcLen: 4 * len(rec),
			DstOff: dst, DstLen: len(enc),
			Payload: enc,
		})
		src += 4 * len(rec)
		dst += len(enc)
	}
	return chunks, nil
}

// TotalDst returns the size of the receiver's file implied by a plan.
func TotalDst(chunks []Chunk) int {
	total := 0
	for _, c := range chunks {
		if end := c.DstOff + c.DstLen; end > total {
			total = end
		}
	}
	return total
}

// Send transmits every chunk of a plan as one ADU each, tag = receiver
// offset. It returns the names assigned.
func Send(snd *alf.Sender, chunks []Chunk, syntax xcode.SyntaxID) ([]uint64, error) {
	names := make([]uint64, 0, len(chunks))
	for i := range chunks {
		name, err := snd.Send(uint64(chunks[i].DstOff), syntax, chunks[i].Payload)
		if err != nil {
			return names, fmt.Errorf("filetx: chunk %d: %w", i, err)
		}
		names = append(names, name)
	}
	return names, nil
}

// Writer reconstructs the receiver's file from ADUs in any order.
type Writer struct {
	buf     []byte
	ranges  map[int]int // written offset -> length
	written int
	// OnComplete fires once when the file fills.
	OnComplete func()
	done       bool
}

// NewWriter creates a writer for a file of the given final size.
func NewWriter(size int) *Writer {
	return &Writer{buf: make([]byte, size), ranges: make(map[int]int)}
}

// Apply places one ADU at its labeled offset. Exact duplicate ADUs are
// ignored; overlapping different ranges are an error.
func (w *Writer) Apply(adu alf.ADU) error {
	off := int(adu.Tag)
	n := len(adu.Data)
	if off < 0 || off+n > len(w.buf) {
		return fmt.Errorf("%w: [%d,%d) of %d", ErrBounds, off, off+n, len(w.buf))
	}
	if have, dup := w.ranges[off]; dup {
		if have == n {
			return nil
		}
		return fmt.Errorf("%w: offset %d", ErrOverlap, off)
	}
	for o, l := range w.ranges {
		if off < o+l && o < off+n {
			return fmt.Errorf("%w: [%d,%d) vs [%d,%d)", ErrOverlap, off, off+n, o, o+l)
		}
	}
	copy(w.buf[off:], adu.Data)
	w.ranges[off] = n
	w.written += n
	if w.written == len(w.buf) && !w.done {
		w.done = true
		if w.OnComplete != nil {
			w.OnComplete()
		}
	}
	return nil
}

// Complete reports whether every byte has been written.
func (w *Writer) Complete() bool { return w.written == len(w.buf) }

// Written returns the bytes received so far.
func (w *Writer) Written() int { return w.written }

// Bytes returns the file contents (meaningful once Complete).
func (w *Writer) Bytes() []byte { return w.buf }

// MissingRanges returns the unwritten [off,end) ranges, sorted.
func (w *Writer) MissingRanges() [][2]int {
	offs := make([]int, 0, len(w.ranges))
	for o := range w.ranges {
		offs = append(offs, o)
	}
	sort.Ints(offs)
	var gaps [][2]int
	cur := 0
	for _, o := range offs {
		if o > cur {
			gaps = append(gaps, [2]int{cur, o})
		}
		cur = o + w.ranges[o]
	}
	if cur < len(w.buf) {
		gaps = append(gaps, [2]int{cur, len(w.buf)})
	}
	return gaps
}
