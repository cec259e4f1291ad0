package filetx

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
	"time"

	alf "repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/xcode"
)

func filedata(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + i>>9)
	}
	return b
}

func TestPlanCoversFile(t *testing.T) {
	data := filedata(100_000)
	chunks := Plan(data, 8192)
	var total int
	for i, c := range chunks {
		if c.SrcOff != c.DstOff || c.SrcLen != c.DstLen {
			t.Fatalf("chunk %d: image-mode offsets differ", i)
		}
		if !bytes.Equal(c.Payload, data[c.SrcOff:c.SrcOff+c.SrcLen]) {
			t.Fatalf("chunk %d payload wrong", i)
		}
		total += c.SrcLen
	}
	if total != len(data) {
		t.Errorf("plan covers %d of %d bytes", total, len(data))
	}
	if TotalDst(chunks) != len(data) {
		t.Errorf("TotalDst = %d", TotalDst(chunks))
	}
}

func TestPlanEmptyFile(t *testing.T) {
	chunks := Plan(nil, 100)
	if len(chunks) != 1 || chunks[0].SrcLen != 0 {
		t.Errorf("empty plan = %+v", chunks)
	}
}

func TestPlanConvertedOffsets(t *testing.T) {
	// Variable-size BER encodings: destination offsets must be exact
	// prefix sums of converted sizes.
	records := [][]int32{
		{1, 2, 3},
		{1000, -1000},
		{0},
		{1 << 30},
	}
	chunks, err := PlanConverted(records, xcode.BER{})
	if err != nil {
		t.Fatal(err)
	}
	dst := 0
	for i, c := range chunks {
		if c.DstOff != dst {
			t.Errorf("chunk %d DstOff = %d, want %d", i, c.DstOff, dst)
		}
		if c.DstLen != len(c.Payload) {
			t.Errorf("chunk %d DstLen %d != payload %d", i, c.DstLen, len(c.Payload))
		}
		dst += c.DstLen
	}
	// Concatenated payloads decode back to the records.
	var file []byte
	for _, c := range chunks {
		file = append(file, c.Payload...)
	}
	off := 0
	for i, rec := range records {
		v, n, err := (xcode.BER{}).DecodeValue(file[off:])
		if err != nil {
			t.Fatal(err)
		}
		if !v.Equal(xcode.Int32sValue(rec)) {
			t.Errorf("record %d mismatch", i)
		}
		off += n
	}
}

func TestWriterOutOfOrder(t *testing.T) {
	data := filedata(10_000)
	chunks := Plan(data, 1000)
	w := NewWriter(len(data))
	completed := false
	w.OnComplete = func() { completed = true }

	order := []int{9, 0, 5, 3, 7, 1, 8, 2, 6, 4}
	for _, i := range order {
		c := chunks[i]
		err := w.Apply(alf.ADU{Tag: uint64(c.DstOff), Data: c.Payload})
		if err != nil {
			t.Fatal(err)
		}
	}
	if !w.Complete() || !completed {
		t.Fatal("file incomplete after all chunks")
	}
	if !bytes.Equal(w.Bytes(), data) {
		t.Error("out-of-order reconstruction wrong")
	}
}

func TestWriterMissingRanges(t *testing.T) {
	w := NewWriter(1000)
	w.Apply(alf.ADU{Tag: 0, Data: make([]byte, 100)})
	w.Apply(alf.ADU{Tag: 500, Data: make([]byte, 100)})
	gaps := w.MissingRanges()
	want := [][2]int{{100, 500}, {600, 1000}}
	if len(gaps) != 2 || gaps[0] != want[0] || gaps[1] != want[1] {
		t.Errorf("gaps = %v, want %v", gaps, want)
	}
	if w.Written() != 200 {
		t.Errorf("written = %d", w.Written())
	}
}

func TestWriterRejectsBadADUs(t *testing.T) {
	w := NewWriter(100)
	if err := w.Apply(alf.ADU{Tag: 90, Data: make([]byte, 20)}); !errors.Is(err, ErrBounds) {
		t.Errorf("bounds err = %v", err)
	}
	w.Apply(alf.ADU{Tag: 10, Data: make([]byte, 20)})
	// Exact duplicate ok.
	if err := w.Apply(alf.ADU{Tag: 10, Data: make([]byte, 20)}); err != nil {
		t.Errorf("duplicate err = %v", err)
	}
	// Overlap not ok.
	if err := w.Apply(alf.ADU{Tag: 20, Data: make([]byte, 20)}); !errors.Is(err, ErrOverlap) {
		t.Errorf("overlap err = %v", err)
	}
	if err := w.Apply(alf.ADU{Tag: 10, Data: make([]byte, 5)}); !errors.Is(err, ErrOverlap) {
		t.Errorf("same-offset different-length err = %v", err)
	}
}

func TestEndToEndOverLossyALF(t *testing.T) {
	s := sim.NewScheduler()
	n := netsim.New(s, 31)
	a := n.NewNode("a")
	b := n.NewNode("b")
	ab, ba := n.NewDuplex(a, b, netsim.LinkConfig{
		Delay: 2 * time.Millisecond, LossProb: 0.05,
	})
	cfg := alf.Config{NackDelay: 5 * time.Millisecond, NackInterval: 5 * time.Millisecond}
	snd, rcv, err := alf.Connect(s, a, b, ab, ba, cfg)
	if err != nil {
		t.Fatal(err)
	}

	data := filedata(200_000)
	chunks := Plan(data, 4096)
	w := NewWriter(TotalDst(chunks))
	outOfOrderWrites := 0
	maxSeen := -1
	rcv.OnADU = func(adu alf.ADU) {
		if int(adu.Tag) < maxSeen {
			outOfOrderWrites++
		} else {
			maxSeen = int(adu.Tag)
		}
		if err := w.Apply(adu); err != nil {
			t.Errorf("apply: %v", err)
		}
	}
	if _, err := Send(snd, chunks, xcode.SyntaxRaw); err != nil {
		t.Fatal(err)
	}
	s.Run()

	if !w.Complete() {
		t.Fatalf("file incomplete: missing %v", w.MissingRanges())
	}
	if !bytes.Equal(w.Bytes(), data) {
		t.Fatal("file corrupted")
	}
	if outOfOrderWrites == 0 {
		t.Error("no out-of-order writes despite loss — ALF benefit not exercised")
	}
}

func TestPlanProperty(t *testing.T) {
	f := func(data []byte, size uint8) bool {
		chunks := Plan(data, int(size))
		w := NewWriter(TotalDst(chunks))
		for i := len(chunks) - 1; i >= 0; i-- { // reverse order
			c := chunks[i]
			if err := w.Apply(alf.ADU{Tag: uint64(c.DstOff), Data: c.Payload}); err != nil {
				return false
			}
		}
		return w.Complete() && bytes.Equal(w.Bytes(), data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
