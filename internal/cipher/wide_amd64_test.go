//go:build amd64 && !purego

package cipher

import "testing"

// forceScalar turns the wide kernel off for the rest of t, which is how
// one machine runs both paths. No test in this package is parallel.
func forceScalar(t *testing.T) {
	old := haveWide
	haveWide = false
	t.Cleanup(func() { haveWide = old })
}
