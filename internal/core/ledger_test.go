//go:build nonceledger

package alf

import "testing"

// The ledger itself: the same bytes sealed again pass (a recomputed
// retransmission); other bytes at a used tag key or keystream position
// panic, however the two seals' ranges start and end; and a position
// differs by its key, nonce, domain or offset.
func TestLedgerRefusesReuse(t *testing.T) {
	nonce, other := aeadNonce(1, 7), aeadNonce(1, 8)
	fresh := func() ledger {
		l := ledger{}.orNew()
		l.tag(1, &nonce, tagCtrData, 0, []byte("first"))
		l.stream(1, &nonce, 60, []byte("0123456789"))
		return l
	}
	l := fresh()
	l.tag(1, &nonce, tagCtrData, 0, []byte("first"))
	l.tag(2, &nonce, tagCtrData, 0, []byte("other"))
	l.tag(1, &nonce, tagCtrParity, 0, []byte("other"))
	l.tag(1, &nonce, tagCtrData, 8, []byte("other"))
	l.tag(1, &other, tagCtrData, 0, []byte("other"))
	l.stream(1, &nonce, 60, []byte("0123456789"))
	l.stream(1, &nonce, 62, []byte("23456")) // inside, the same bytes
	l.stream(1, &nonce, 50, []byte("xxxxxxxxxx0123"))
	l.stream(1, &nonce, 70, []byte("other"))
	l.stream(2, &nonce, 60, []byte("other"))
	l.stream(1, &other, 60, []byte("other"))
	for _, c := range []struct {
		name string
		seal func(l ledger)
	}{
		{"a tag key for other bytes", func(l ledger) { l.tag(1, &nonce, tagCtrData, 0, []byte("firsT")) }},
		{"a tag key for a longer message", func(l ledger) { l.tag(1, &nonce, tagCtrData, 0, []byte("first!")) }},
		{"keystream at the same offset", func(l ledger) { l.stream(1, &nonce, 60, []byte("0123456780")) }},
		{"keystream from another offset, across a block", func(l ledger) { l.stream(1, &nonce, 56, []byte("abcd012x")) }},
		{"keystream inside another seal's range", func(l ledger) { l.stream(1, &nonce, 65, []byte("5X")) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", c.name)
				}
			}()
			c.seal(fresh())
		}()
	}
}
