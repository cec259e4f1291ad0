package alf

import (
	"math/rand"
	"testing"
)

// The differential test (the sim/order_test.go pattern): one op stream
// drives a window[uint64] and an obviously-correct model — a map plus
// the range it stands for — in lockstep, comparing every answer after
// every op. The stream is bytes so the fuzzer can mutate it.

// windowModel restates the window contract over a map: names in
// [base, base+n) have a value, nothing else does.
type windowModel struct {
	vals    map[uint64]uint64
	base, n uint64
}

func (m *windowModel) extend(name uint64) (fresh []uint64) {
	if m.n == 0 {
		m.base = name
	}
	for nm := m.base + m.n; nm <= name; nm++ {
		fresh = append(fresh, nm)
	}
	m.n = max(m.n, name-m.base+1)
	return fresh
}

func (m *windowModel) shift() {
	delete(m.vals, m.base)
	m.base++
	m.n--
}

// runWindowOps interprets ops as (opcode, argument) byte pairs. The
// window does not clear slots, so the stream writes every name that
// enters it, as both endpoints do; from then on the two sides must
// agree on every name's presence and value.
func runWindowOps(t *testing.T, ops []byte) {
	t.Helper()
	var w window[uint64]
	m := windowModel{vals: map[uint64]uint64{}}
	stamp := uint64(1) // distinct value per write

	check := func(op int, name uint64) {
		t.Helper()
		got := w.at(name)
		want, in := m.vals[name]
		switch {
		case in && got == nil:
			t.Fatalf("op %d: at(%d) = nil, model has %d (base %d n %d)", op, name, want, m.base, m.n)
		case in && *got != want:
			t.Fatalf("op %d: at(%d) = %d, model has %d", op, name, *got, want)
		case !in && got != nil:
			t.Fatalf("op %d: at(%d) = %d, model has nothing (base %d n %d)", op, name, *got, m.base, m.n)
		}
	}
	for i := 0; i+1 < len(ops); i += 2 {
		arg := uint64(ops[i+1])
		switch ops[i] % 6 {
		case 0, 1: // extend near (0) or far (1) past the end, writing every name that enters
			name := m.base + m.n + arg%4
			if ops[i]%6 == 1 {
				name = m.base + m.n + arg*16
			}
			if name-m.base >= 1<<12 {
				continue // keep the tables small: every entering name is written
			}
			fresh := m.extend(name)
			slot := w.extend(name)
			if len(fresh) > 0 && w.at(name) != slot {
				t.Fatalf("op %d: extend(%d) and at disagree on the slot", i, name)
			}
			for _, nm := range fresh {
				*w.at(nm), m.vals[nm] = stamp, stamp
				stamp++
			}
		case 2: // extend to a name already inside: no change
			if m.n > 0 {
				name := m.base + arg%m.n
				if m.extend(name) != nil || *w.extend(name) != m.vals[name] {
					t.Fatalf("op %d: extend(%d) inside the window changed it", i, name)
				}
			}
		case 3: // write through the pointer at returns
			if m.n > 0 {
				name := m.base + arg%m.n
				*w.at(name), m.vals[name] = stamp, stamp
				stamp++
			}
		case 4: // shift
			if m.n > 0 {
				m.shift()
				w.shift()
			}
		case 5: // run empty, then restart at a far base
			for m.n > 0 {
				m.shift()
				w.shift()
			}
			name := m.base + arg<<20
			m.extend(name)
			*w.extend(name), m.vals[name] = stamp, stamp
			stamp++
		}
		if w.base != m.base || uint64(w.n) != m.n {
			t.Fatalf("op %d: window [%d,+%d), model [%d,+%d)", i, w.base, w.n, m.base, m.n)
		}
		// Inside (both ends and the argument's pick), just below, just
		// above, and far on either side.
		for _, name := range []uint64{m.base, m.base + m.n - 1, m.base + arg, m.base - 1, m.base + m.n, m.base - 1<<40, m.base + 1<<40, 0, ^uint64(0)} {
			check(i, name)
		}
	}
	for nm := m.base; nm < m.base+m.n; nm++ {
		check(len(ops), nm)
	}
}

func TestWindowAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for run := 0; run < 200; run++ {
		ops := make([]byte, 2*(1+rng.Intn(400)))
		rng.Read(ops)
		runWindowOps(t, ops)
	}
}

func FuzzWindow(f *testing.F) {
	f.Add([]byte{0, 3, 0, 3, 4, 0, 4, 0, 0, 3, 1, 9, 3, 2, 5, 1, 2, 0})
	f.Add([]byte{5, 200, 1, 30, 4, 0, 3, 7, 1, 5})
	f.Fuzz(func(t *testing.T, ops []byte) { runWindowOps(t, ops) })
}

// TestWindowEdges pins the cases the op stream reaches only by luck.
func TestWindowEdges(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		var w window[int]
		for _, name := range []uint64{0, 1, ^uint64(0)} {
			if w.at(name) != nil {
				t.Fatalf("at(%d) on the zero window is not nil", name)
			}
		}
		if w.ring != nil {
			t.Fatal("a window that holds nothing allocated a ring")
		}
		// Run it empty away from zero: still nothing, whatever is asked.
		*w.extend(100) = 1
		w.shift()
		for _, name := range []uint64{99, 100, 101, 0} {
			if w.at(name) != nil {
				t.Fatalf("at(%d) on an emptied window is not nil", name)
			}
		}
	})
	t.Run("below base", func(t *testing.T) {
		var w window[int]
		*w.extend(10) = 1
		*w.extend(11) = 2
		// 9-10 wraps to 2^64-1: it must take the nil branch, not index.
		for _, name := range []uint64{9, 0, 10 + 1<<63} {
			if w.at(name) != nil {
				t.Fatalf("at(%d) below base 10 is not nil", name)
			}
		}
		if *w.at(10) != 1 || *w.at(11) != 2 || w.at(12) != nil {
			t.Fatal("window [10,12) does not hold what was put in it")
		}
	})
	t.Run("growth across the wrap point", func(t *testing.T) {
		// Fill a 4-ring, advance so the live range [2,6) wraps it
		// (slots 2,3,0,1), then grow: every name must keep its value.
		var w window[uint64]
		for nm := uint64(0); nm < 4; nm++ {
			*w.extend(nm) = 100 + nm
		}
		w.shift()
		w.shift()
		*w.extend(4) = 104
		*w.extend(5) = 105
		if len(w.ring) != 4 {
			t.Fatalf("ring grew to %d before it was full", len(w.ring))
		}
		*w.extend(6) = 106 // doubles with the live range straddling the wrap
		*w.extend(40) = 140
		for nm := uint64(2); nm <= 6; nm++ {
			if got := w.at(nm); got == nil || *got != 100+nm {
				t.Fatalf("name %d lost across growth: %v", nm, got)
			}
		}
		if *w.at(40) != 140 || w.at(1) != nil || w.at(41) != nil || w.n != 39 {
			t.Fatalf("window after growth: base %d n %d", w.base, w.n)
		}
		if n := len(w.ring); n&(n-1) != 0 || n < w.n {
			t.Fatalf("ring of %d for %d names", n, w.n)
		}
	})
}
