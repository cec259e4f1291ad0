//go:build amd64 || arm64

package udplink

import (
	"net"
	"os"
	"syscall"
	"unsafe"

	"repro/internal/buf"
)

// mmsghdr is the kernel's struct mmsghdr on the 64-bit ports: a
// message header and the byte count of that message.
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
	_   [4]byte
}

// mmsgIO is the batch sockIO: recvmmsg and sendmmsg on the socket's
// own descriptor, entered through syscall.RawConn so that an empty or
// full socket parks the goroutine in the runtime poller like any other
// Go socket call. The header vectors, the peer's sockaddr and the two
// RawConn callbacks are built once, in newMmsgIO; a call afterwards
// only points iovecs at pooled buffers, so the steady state allocates
// nothing. The receive half belongs to the reader goroutine and the
// send half to the loop goroutine; they share only what is read-only.
type mmsgIO struct {
	rc    syscall.RawConn
	cfg   *Config
	st    *counters
	lossy *LossyConn // if the conn was wrapped in one: its drops are applied to the send queue

	// peer is the destination of every send and the only accepted
	// source, as a sockaddr of the socket's own family (a sockaddr_in
	// overlaid on the front for an AF_INET socket).
	peer    syscall.RawSockaddrInet6
	peerLen uint32

	rxHdrs  []mmsghdr
	rxIovs  []syscall.Iovec
	rxNames []syscall.RawSockaddrInet6
	rxRefs  []*buf.Ref // rxRefs[i] backs rxIovs[i]; nil once handed to the caller
	rxN     int        // what the last recvmmsg returned
	rxErr   syscall.Errno
	rxFn    func(fd uintptr) bool

	txHdrs       []mmsghdr
	txIovs       []syscall.Iovec
	txOff, txEnd int // txHdrs[txOff:txEnd] is still to be written
	txErrs       int
	txFn         func(fd uintptr) bool
}

// newMmsgIO returns the batch sockIO for conn, or nil if conn is not a
// UDP socket (possibly inside a LossyConn) whose peer it can address:
// the caller then takes the portable path.
func newMmsgIO(conn net.PacketConn, peer net.Addr, cfg *Config, st *counters) sockIO {
	m := &mmsgIO{cfg: cfg, st: st}
	if lc, ok := conn.(*LossyConn); ok {
		m.lossy, conn = lc, lc.PacketConn
	}
	uc, ok := conn.(*net.UDPConn)
	ua, ok2 := peer.(*net.UDPAddr)
	if !ok || !ok2 || ua.Zone != "" {
		return nil
	}
	var err error
	if m.rc, err = uc.SyscallConn(); err != nil {
		return nil
	}
	var local syscall.Sockaddr
	if cerr := m.rc.Control(func(fd uintptr) { local, err = syscall.Getsockname(int(fd)) }); cerr != nil || err != nil {
		return nil
	}
	addr := ua.AddrPort().Addr().Unmap()
	switch local.(type) {
	case *syscall.SockaddrInet4:
		if !addr.Is4() {
			return nil
		}
		sa := (*syscall.RawSockaddrInet4)(unsafe.Pointer(&m.peer))
		sa.Family, sa.Addr = syscall.AF_INET, addr.As4()
		m.peerLen = syscall.SizeofSockaddrInet4
	case *syscall.SockaddrInet6:
		if !addr.IsValid() {
			return nil
		}
		// A dual-stack socket names an IPv4 peer by its mapped address,
		// which is what As16 gives.
		m.peer.Family, m.peer.Addr = syscall.AF_INET6, addr.As16()
		m.peerLen = syscall.SizeofSockaddrInet6
	default:
		return nil
	}
	// sin_port and sin6_port sit at the same offset, in network order.
	port := (*[2]byte)(unsafe.Pointer(&m.peer.Port))
	port[0], port[1] = byte(ua.Port>>8), byte(ua.Port)

	m.rxHdrs = make([]mmsghdr, cfg.Batch)
	m.rxIovs = make([]syscall.Iovec, cfg.Batch)
	m.rxNames = make([]syscall.RawSockaddrInet6, cfg.Batch)
	m.rxRefs = make([]*buf.Ref, cfg.Batch)
	m.txHdrs = make([]mmsghdr, cfg.Batch)
	m.txIovs = make([]syscall.Iovec, cfg.Batch)
	for i := range m.rxHdrs {
		rx, tx := &m.rxHdrs[i].hdr, &m.txHdrs[i].hdr
		rx.Name = (*byte)(unsafe.Pointer(&m.rxNames[i]))
		rx.Iov, rx.Iovlen = &m.rxIovs[i], 1
		m.rxIovs[i].SetLen(cfg.MTU)
		tx.Name, tx.Namelen = (*byte)(unsafe.Pointer(&m.peer)), m.peerLen
		tx.Iov, tx.Iovlen = &m.txIovs[i], 1
	}
	m.rxFn, m.txFn = m.recvmmsg, m.sendmmsg
	return m
}

// recvmmsg is the RawConn.Read callback: false parks the reader until
// the socket is readable, then the poller calls it again.
func (m *mmsgIO) recvmmsg(fd uintptr) bool {
	for {
		m.st.rxCalls.Add(1)
		n, _, e := syscall.Syscall6(sysRecvmmsg, fd, uintptr(unsafe.Pointer(&m.rxHdrs[0])), uintptr(len(m.rxHdrs)), syscall.MSG_DONTWAIT, 0, 0)
		switch e {
		case 0:
			m.rxN, m.rxErr = int(n), 0
			return true
		case syscall.EAGAIN:
			return false
		case syscall.EINTR:
		default:
			m.rxN, m.rxErr = 0, e
			return true
		}
	}
}

func (m *mmsgIO) recv(in []*buf.Ref) (int, error) {
	for {
		for i := range m.rxHdrs {
			if m.rxRefs[i] == nil {
				m.rxRefs[i] = m.cfg.Pool.Get(m.cfg.MTU)
				m.rxIovs[i].Base = unsafe.SliceData(m.rxRefs[i].Bytes())
			}
			m.rxHdrs[i].hdr.Namelen = syscall.SizeofSockaddrInet6 // the kernel wrote the last name's length over it
		}
		if err := m.rc.Read(m.rxFn); err != nil {
			return 0, err
		}
		if m.rxErr != 0 {
			return 0, os.NewSyscallError("recvmmsg", m.rxErr)
		}
		got := 0
		for i := 0; i < m.rxN; i++ {
			if m.rxHdrs[i].hdr.Flags&syscall.MSG_TRUNC != 0 || !m.fromPeer(&m.rxNames[i]) {
				continue // the buffer stays for the next call
			}
			m.rxRefs[i].Trim(int(m.rxHdrs[i].n))
			in[got], m.rxRefs[i] = m.rxRefs[i], nil
			got++
		}
		m.st.dropped.Add(int64(m.rxN - got))
		if got > 0 {
			return got, nil
		}
	}
}

// fromPeer reports whether a received datagram's source, as the kernel
// named it, is the link's peer: same family, port and address.
func (m *mmsgIO) fromPeer(name *syscall.RawSockaddrInet6) bool {
	if m.peer.Family == syscall.AF_INET {
		// Family, port and address are the first eight bytes of a sockaddr_in.
		return *(*[8]byte)(unsafe.Pointer(name)) == *(*[8]byte)(unsafe.Pointer(&m.peer))
	}
	return name.Family == m.peer.Family && name.Port == m.peer.Port && name.Addr == m.peer.Addr
}

// sendmmsg is the RawConn.Write callback: it writes txHdrs[txOff:txEnd]
// and returns false to wait for the socket to become writable.
// sendmmsg reports an error only for the first message of a call, so a
// datagram that fails is always txHdrs[txOff]: it is counted and
// skipped, and the rest of the vector goes out in the next call.
func (m *mmsgIO) sendmmsg(fd uintptr) bool {
	for m.txOff < m.txEnd {
		m.st.txCalls.Add(1)
		n, _, e := syscall.Syscall6(sysSendmmsg, fd, uintptr(unsafe.Pointer(&m.txHdrs[m.txOff])), uintptr(m.txEnd-m.txOff), syscall.MSG_DONTWAIT, 0, 0)
		switch e {
		case 0:
			m.txOff += int(n)
		case syscall.EAGAIN:
			return false
		case syscall.EINTR:
		default:
			m.txErrs++
			m.txOff++
		}
	}
	return true
}

func (m *mmsgIO) send(out []*buf.Ref) {
	queued := len(out)
	m.txErrs = 0
	for len(out) > 0 {
		n := 0
		for n < len(m.txHdrs) && len(out) > 0 {
			b := out[0].Bytes()
			out = out[1:]
			if m.lossy != nil && m.lossy.drop() {
				continue // counts as sent: the wire ate it
			}
			m.txIovs[n].Base = unsafe.SliceData(b)
			m.txIovs[n].SetLen(len(b))
			n++
		}
		if n == 0 {
			continue
		}
		m.txOff, m.txEnd = 0, n
		if err := m.rc.Write(m.txFn); err != nil {
			m.txErrs += m.txEnd - m.txOff // the socket is closed
		}
	}
	m.st.sendErrs.Add(int64(m.txErrs))
	m.st.sent.Add(int64(queued - m.txErrs))
}
