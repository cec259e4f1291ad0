//go:build race

package udplink

const raceEnabled = true
