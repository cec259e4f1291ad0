package udplink

import (
	"reflect"
	"testing"
)

// cutTrains cuts a send queue the way mmsgIO.send does: the datagrams
// the wire eats leave the queue first, then trainLen takes one message
// after another off the head of what is left. It returns each message
// as the queue positions of its datagrams.
func cutTrains(lens []int, dropped []bool, maxSegs int) [][]int {
	var at, left []int
	for i, l := range lens {
		if !dropped[i] {
			at, left = append(at, i), append(left, l)
		}
	}
	var msgs [][]int
	for len(left) > 0 {
		k := trainLen(left, maxSegs)
		msgs = append(msgs, at[:k:k])
		at, left = at[k:], left[k:]
	}
	return msgs
}

func repeat(l, n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = l
	}
	return s
}

func seq(from, to int) []int {
	var s []int
	for i := from; i < to; i++ {
		s = append(s, i)
	}
	return s
}

func TestTrainLen(t *testing.T) {
	const frag, ctl = 1024, 40 // a data fragment and a control frame
	for _, tc := range []struct {
		name    string
		lens    []int
		dropped []int
		maxSegs int
		want    [][]int
	}{
		{name: "one datagram", lens: []int{256}, want: [][]int{{0}}},
		{name: "all equal", lens: repeat(256, 64), want: [][]int{seq(0, 64)}},
		{name: "short tail closes the train", lens: []int{frag, frag, frag, 300, frag, frag},
			want: [][]int{{0, 1, 2, 3}, {4, 5}}},
		{name: "one ADU of 8 fragments and a short one", lens: append(repeat(frag, 8), 200), want: [][]int{seq(0, 9)}},
		{name: "longer after shorter starts a new train", lens: []int{100, 200, 200, 300},
			want: [][]int{{0}, {1, 2}, {3}}},
		{name: "65th segment", lens: repeat(16, 65), want: [][]int{seq(0, 64), {64}}},
		{name: "byte cap", lens: repeat(1400, 50), want: [][]int{seq(0, 46), seq(46, 50)}},
		{name: "over the byte cap alone", lens: []int{16, 1 << 16, 16}, want: [][]int{{0}, {1}, {2}}},
		{name: "empty datagrams travel alone", lens: []int{0, 0, 8, 0, 8, 8}, want: [][]int{{0}, {1}, {2}, {3}, {4, 5}}},
		{name: "every datagram dropped", lens: repeat(256, 5), dropped: seq(0, 5), want: nil},
		{name: "a drop does not break the run", lens: repeat(256, 6), dropped: []int{0, 3},
			want: [][]int{{1, 2, 4, 5}}},
		{name: "interleaved control frames", lens: []int{frag, frag, ctl, frag, frag, 500, ctl, ctl, frag},
			want: [][]int{{0, 1, 2}, {3, 4, 5}, {6, 7}, {8}}},
		{name: "train cap of one", lens: repeat(256, 3), maxSegs: 1, want: [][]int{{0}, {1}, {2}}},
	} {
		if tc.maxSegs == 0 {
			tc.maxSegs = maxTrainSegs
		}
		dropped := make([]bool, len(tc.lens))
		for _, i := range tc.dropped {
			dropped[i] = true
		}
		if got := cutTrains(tc.lens, dropped, tc.maxSegs); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: lengths %v cut into %v, want %v", tc.name, tc.lens, got, tc.want)
		}
	}
}

// FuzzTrains: whatever the queued lengths, the drops and the cap, every
// message is one the kernel can cut back into its datagrams (all but
// the last of one length, the last no longer and not empty, within the
// segment and byte limits), and the messages one after another are the
// queue minus the dropped datagrams, in queue order.
func FuzzTrains(f *testing.F) {
	f.Add([]byte{4, 4, 4, 1, 4, 4}, uint64(0), uint8(64))
	f.Add([]byte{0, 0, 7, 7, 9}, uint64(0b100), uint8(1))
	f.Add([]byte{255, 255, 255, 255, 255, 255}, uint64(1<<63|1), uint8(3))
	f.Fuzz(func(t *testing.T, raw []byte, dropMask uint64, maxSegs uint8) {
		segs := 1 + int(maxSegs)%maxTrainSegs
		lens, dropped := make([]int, len(raw)), make([]bool, len(raw))
		for i, b := range raw {
			// 0..255 would never reach the byte cap; 255 stands for a jumbo.
			if lens[i] = int(b); b == 255 {
				lens[i] = 30000
			}
			dropped[i] = dropMask>>(i%64)&1 != 0
		}
		next := 0
		for _, msg := range cutTrains(lens, dropped, segs) {
			total := 0
			for j, i := range msg {
				for next < i {
					if !dropped[next] {
						t.Fatalf("datagram %d went in no message", next)
					}
					next++
				}
				if dropped[i] {
					t.Fatalf("dropped datagram %d is in message %v", i, msg)
				}
				next = i + 1
				total += lens[i]
				switch seg := lens[msg[0]]; {
				case j < len(msg)-1 && lens[i] != seg:
					t.Fatalf("message %v of lengths %v: datagram %d is not the last and not %d long", msg, lens, i, seg)
				case j > 0 && (lens[i] > seg || lens[i] == 0):
					t.Fatalf("message %v of lengths %v: datagram %d cannot follow a %d-byte segment", msg, lens, i, seg)
				}
			}
			if len(msg) == 0 || len(msg) > segs || len(msg) > 1 && total > maxTrainBytes {
				t.Fatalf("message %v of lengths %v: %d datagrams, %d bytes", msg, lens, len(msg), total)
			}
		}
		for ; next < len(lens); next++ {
			if !dropped[next] {
				t.Fatalf("datagram %d went in no message", next)
			}
		}
	})
}
