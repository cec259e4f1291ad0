//go:build !nonceledger

package alf

import "repro/internal/cipher"

// ledger is the test-build nonce ledger (ledger_on.go). Without the
// nonceledger tag it has no size and records nothing, and every call
// to it inlines away.
type ledger struct{}

func (l ledger) orNew() ledger { return l }

func (ledger) tag(uint64, *[cipher.NonceSize]byte, uint32, int, []byte) {}

func (ledger) stream(uint64, *[cipher.NonceSize]byte, int, []byte) {}

func keyPrint(*cipher.Key) uint64 { return 0 }
