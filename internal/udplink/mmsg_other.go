//go:build !linux || !(amd64 || arm64)

package udplink

import "net"

// newMmsgIO has no batch system calls to offer here: every link takes
// the portable path.
func newMmsgIO(net.PacketConn, net.Addr, *Config, *counters) sockIO { return nil }
