package alf

// window is the per-name table of both endpoints. ADU names are
// assigned densely, so the names with live state are one short range
// [base, base+n), kept in a power-of-two ring: a name's slot is
// ring[name&mask], walking names in order is walking the ring, and a
// finished prefix is dropped by advancing base. It never clears a slot
// — one entering the window holds what its last occupant left, so a
// user may keep capacity there and must reset what it reads. The zero
// value is an empty window that has allocated nothing.
type window[T any] struct {
	ring []T    // len is zero or a power of two
	base uint64 // lowest name in the window
	n    int    // names in the window
}

// at returns name's slot, or nil when name is outside the window.
func (w *window[T]) at(name uint64) *T {
	// A name below base wraps to a huge offset and fails the same test.
	if name-w.base >= uint64(w.n) {
		return nil
	}
	return &w.ring[name&uint64(len(w.ring)-1)]
}

// extend moves the window's end out to include name (at or above base)
// and returns its slot, doubling the ring as needed; an empty window
// restarts at name. Slot pointers obtained earlier do not survive it.
func (w *window[T]) extend(name uint64) *T {
	if w.n == 0 {
		w.base = name
	}
	need := name - w.base + 1
	if need > uint64(len(w.ring)) {
		size := max(len(w.ring), 4)
		for uint64(size) < need {
			size *= 2
		}
		ring := make([]T, size)
		for i := uint64(0); i < uint64(w.n); i++ {
			ring[(w.base+i)&uint64(size-1)] = w.ring[(w.base+i)&uint64(len(w.ring)-1)]
		}
		w.ring = ring
	}
	w.n = max(w.n, int(need))
	return &w.ring[name&uint64(len(w.ring)-1)]
}

// shift drops the lowest name from the window.
func (w *window[T]) shift() {
	w.base++
	w.n--
}
