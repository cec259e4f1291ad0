//go:build !amd64 || purego

package cipher

import "testing"

// forceScalar has nothing to turn off on a build without the kernel.
func forceScalar(*testing.T) {}
