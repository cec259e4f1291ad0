//go:build !race

package udplink

// raceEnabled reports whether the race detector is active. Its
// instrumentation allocates, so the allocation guard skips itself
// under -race.
const raceEnabled = false
