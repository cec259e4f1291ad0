//go:build !amd64 || purego

package cpu

// No probe on this build: every kernel that needs an extension is
// compiled out, so none is reported.
func detect() (avx2, avx512f, avx512ifma bool) { return false, false, false }
