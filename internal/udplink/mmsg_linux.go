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

// The UDP socket options behind trains, which the frozen syscall
// package does not name: UDP_SEGMENT (Linux 4.18) as a control message
// on a send gives the length at which the kernel cuts the message into
// datagrams, and UDP_GRO (5.0) as a socket option lets a receive take
// such a message back uncut, with its segment length in a control
// message of the same name.
const (
	solUDP     = syscall.IPPROTO_UDP
	udpSegment = 103
	udpGRO     = 104
)

// cmsg is one control message with room for the data of either kind:
// UDP_SEGMENT carries a uint16, UDP_GRO an int.
type cmsg struct {
	hdr  syscall.Cmsghdr
	data [8]byte
}

// groBufSize is what a receive buffer holds on a UDP_GRO socket: any
// train, since that is one UDP payload before the cut. It is a pool
// size class.
const groBufSize = 1 << 16

// mmsgIO is the batch sockIO: recvmmsg and sendmmsg on the socket's
// own descriptor, entered through syscall.RawConn so that an empty or
// full socket parks the goroutine in the runtime poller like any other
// Go socket call. Each message of either call is a train (train.go):
// the kernel walks its UDP, IP and device path once per message, so a
// run of equal-length fragments costs one traversal, not one per
// datagram. The header vectors, the control messages, the peer's
// sockaddr and the two RawConn callbacks are built once, in newMmsgIO;
// a call afterwards only points iovecs at pooled buffers, so the steady
// state allocates nothing. The receive half belongs to the reader
// goroutine and the send half to the loop goroutine; they share only
// what is read-only.
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

	// gro: the socket took UDP_GRO, so a message read may be a train and
	// receive buffers are groBufSize long. Otherwise the kernel cuts
	// every train before the socket sees it and buffers are maxDatagram
	// long.
	gro     bool
	rxHdrs  []mmsghdr
	rxIovs  []syscall.Iovec
	rxNames []syscall.RawSockaddrInet6
	rxCtl   []cmsg     // rxCtl[i] receives rxHdrs[i]'s UDP_GRO message
	rxRefs  []*buf.Ref // rxRefs[i] backs rxIovs[i]; nil once handed to the caller
	rxN     int        // what the last recvmmsg returned
	rxErr   syscall.Errno
	rxFn    func(fd uintptr) bool

	// maxSegs is the longest train send builds: maxTrainSegs until the
	// kernel refuses a train for a reason that will not pass, 1 from
	// then on.
	maxSegs      int
	txHdrs       []mmsghdr
	txCtl        []cmsg          // txCtl[i] is txHdrs[i]'s UDP_SEGMENT message, attached when it carries more than one datagram
	txIovs       []syscall.Iovec // one per datagram of the flush that goes out, in queue order; txHdrs point into it
	txLens       []int           // their lengths
	txOff, txEnd int             // txHdrs[txOff:txEnd] is still to be written
	txErrs       int
	txErr        syscall.Errno // why the last sendmmsg callback stopped at a train, short of txEnd
	txFn         func(fd uintptr) bool
}

// newMmsgIO returns the batch sockIO for conn, or nil if conn is not a
// UDP socket (possibly inside a LossyConn) whose peer it can address:
// the caller then takes the portable path.
func newMmsgIO(conn net.PacketConn, peer net.Addr, cfg *Config, st *counters) sockIO {
	m := &mmsgIO{cfg: cfg, st: st, maxSegs: maxTrainSegs}
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

	m.rxHdrs = make([]mmsghdr, batch)
	m.rxIovs = make([]syscall.Iovec, batch)
	m.rxNames = make([]syscall.RawSockaddrInet6, batch)
	m.rxCtl = make([]cmsg, batch)
	m.rxRefs = make([]*buf.Ref, batch)
	m.txHdrs = make([]mmsghdr, batch)
	m.txCtl = make([]cmsg, batch)
	for i := range m.rxHdrs {
		rx, tx := &m.rxHdrs[i].hdr, &m.txHdrs[i].hdr
		rx.Name = (*byte)(unsafe.Pointer(&m.rxNames[i]))
		rx.Iov, rx.Iovlen = &m.rxIovs[i], 1
		rx.Control = (*byte)(unsafe.Pointer(&m.rxCtl[i]))
		tx.Name, tx.Namelen = (*byte)(unsafe.Pointer(&m.peer)), m.peerLen
		c := &m.txCtl[i].hdr
		c.Level, c.Type = solUDP, udpSegment
		c.SetLen(syscall.CmsgLen(2))
	}
	m.rxFn, m.txFn = m.recvmmsg, m.sendmmsg
	// Last, now that nothing can send the link to the portable path,
	// whose reads would take a train for one datagram.
	if cerr := m.rc.Control(func(fd uintptr) { err = syscall.SetsockoptInt(int(fd), solUDP, udpGRO, 1) }); cerr != nil {
		return nil
	}
	m.gro = err == nil
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

func (m *mmsgIO) recv(in []arrival) (int, error) {
	size, ctl := maxDatagram, 0
	if m.gro {
		size, ctl = groBufSize, int(unsafe.Sizeof(cmsg{}))
	}
	for {
		for i := range m.rxHdrs {
			if m.rxRefs[i] == nil {
				m.rxRefs[i] = m.cfg.Pool.Get(size)
				m.rxIovs[i].Base = unsafe.SliceData(m.rxRefs[i].Bytes())
				m.rxIovs[i].SetLen(size)
			}
			// The kernel wrote the last message's lengths over both.
			m.rxHdrs[i].hdr.Namelen = syscall.SizeofSockaddrInet6
			m.rxHdrs[i].hdr.SetControllen(ctl)
		}
		if err := m.rc.Read(m.rxFn); err != nil {
			return 0, err
		}
		if m.rxErr != 0 {
			return 0, os.NewSyscallError("recvmmsg", m.rxErr)
		}
		m.st.rxMsgs.Add(int64(m.rxN))
		got, dropped := 0, 0
		for i := 0; i < m.rxN; i++ {
			n := int(m.rxHdrs[i].n)
			seg := m.segLen(i, n)
			// In a maxDatagram-long buffer a longer datagram shows as
			// truncated; in a groBufSize one it fits, so its length is
			// compared.
			if m.rxHdrs[i].hdr.Flags&(syscall.MSG_TRUNC|syscall.MSG_CTRUNC) != 0 || seg > maxDatagram || !m.fromPeer(&m.rxNames[i]) {
				dropped += datagrams(n, seg)
				continue // the buffer stays for the next call
			}
			m.rxRefs[i].Trim(n)
			in[got] = arrival{ref: m.rxRefs[i], seg: seg}
			m.rxRefs[i] = nil
			got++
		}
		m.st.dropped.Add(int64(dropped))
		if got > 0 {
			return got, nil
		}
	}
}

// segLen returns the segment length of the n-byte message in rxHdrs[i]:
// what its UDP_GRO control message says if the kernel attached one
// (the message is a train), n otherwise (a lone datagram).
func (m *mmsgIO) segLen(i, n int) int {
	c := &m.rxCtl[i]
	if int(m.rxHdrs[i].hdr.Controllen) >= syscall.CmsgLen(4) && c.hdr.Level == solUDP && c.hdr.Type == udpGRO {
		if seg := int(*(*int32)(unsafe.Pointer(&c.data))); seg > 0 {
			return seg
		}
	}
	return n
}

// release gives the posted receive buffers back to the pool.
func (m *mmsgIO) release() {
	for i, ref := range m.rxRefs {
		if ref != nil {
			ref.Release()
			m.rxRefs[i] = nil
		}
	}
}

// fromPeer reports whether a received message's source, as the kernel
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
// message that fails is always txHdrs[txOff]. A lone datagram that
// fails is counted and skipped, and the rest of the vector goes out in
// the next call; a train that fails ends the callback with txErr set,
// for send to break it up.
func (m *mmsgIO) sendmmsg(fd uintptr) bool {
	for m.txOff < m.txEnd {
		m.st.txCalls.Add(1)
		n, _, e := syscall.Syscall6(sysSendmmsg, fd, uintptr(unsafe.Pointer(&m.txHdrs[m.txOff])), uintptr(m.txEnd-m.txOff), syscall.MSG_DONTWAIT, 0, 0)
		switch e {
		case 0:
			m.txOff += int(n)
			m.st.txMsgs.Add(int64(n))
		case syscall.EAGAIN:
			return false
		case syscall.EINTR:
		default:
			if m.txHdrs[m.txOff].hdr.Iovlen > 1 {
				m.txErr = e
				return true
			}
			m.txErrs++
			m.txOff++
		}
	}
	return true
}

// send asks the LossyConn, if there is one, about each queued datagram
// in queue order, and writes the survivors as trains, up to batch of
// them per sendmmsg: one iovec per datagram, pointing at its pooled
// buffer, and on a train of more than one a UDP_SEGMENT message with
// the segment length. A train the kernel will not take is not a send
// error: its datagrams go out again one by one, in the same flush, and
// only one the kernel refuses on its own is counted.
func (m *mmsgIO) send(out []*buf.Ref) {
	m.txIovs, m.txLens = m.txIovs[:0], m.txLens[:0]
	for _, ref := range out {
		if m.lossy != nil && m.lossy.drop() {
			continue // counts as sent: the wire ate it
		}
		b := ref.Bytes()
		var iov syscall.Iovec
		iov.Base = unsafe.SliceData(b)
		iov.SetLen(len(b))
		m.txIovs, m.txLens = append(m.txIovs, iov), append(m.txLens, len(b))
	}
	m.txErrs = 0
	// Datagrams before next have been written or have failed; those
	// before alone are of a train the kernel refused, and travel alone.
	next, alone := 0, 0
	for next < len(m.txLens) {
		n := 0
		for at := next; n < len(m.txHdrs) && at < len(m.txLens); n++ {
			k := 1
			if at >= alone {
				k = trainLen(m.txLens[at:], m.maxSegs)
			}
			hdr := &m.txHdrs[n].hdr
			hdr.Iov, hdr.Iovlen = &m.txIovs[at], uint64(k)
			hdr.Control, hdr.Controllen = nil, 0
			if k > 1 {
				c := &m.txCtl[n]
				*(*uint16)(unsafe.Pointer(&c.data)) = uint16(m.txLens[at])
				hdr.Control = (*byte)(unsafe.Pointer(c))
				hdr.SetControllen(int(unsafe.Sizeof(*c)))
			}
			at += k
		}
		m.txOff, m.txEnd, m.txErr = 0, n, 0
		err := m.rc.Write(m.txFn)
		for i := 0; i < m.txOff; i++ {
			next += int(m.txHdrs[i].hdr.Iovlen)
		}
		if err != nil {
			m.txErrs += len(m.txLens) - next // the socket is closed
			break
		}
		if m.txOff < m.txEnd {
			alone = next + int(m.txHdrs[m.txOff].hdr.Iovlen)
			switch m.txErr {
			case syscall.EINVAL, syscall.EIO, syscall.EOPNOTSUPP, syscall.ENOPROTOOPT, syscall.EMSGSIZE:
				// No UDP_SEGMENT in this kernel or on this device, or a
				// segment that does not fit the path MTU: the next train
				// would fare no better.
				m.maxSegs = 1
			}
		}
	}
	m.st.sendErrs.Add(int64(m.txErrs))
	m.st.sent.Add(int64(len(out) - m.txErrs))
}
