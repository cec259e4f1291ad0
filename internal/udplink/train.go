package udplink

// A train is what one message on the batch path carries: a run of
// consecutive queued datagrams that the kernel takes as one buffer and
// cuts back into datagrams at the last moment (UDP_SEGMENT), and hands
// to a UDP_GRO receiver uncut. The kernel cuts at one segment length,
// so every datagram of a train but the last has that length and the
// last is no longer; a lone datagram is a train of one.
const (
	// maxTrainSegs is UDP_MAX_SEGMENTS as it was until Linux 6.9 (128
	// since): the most datagrams the kernel takes in one message.
	maxTrainSegs = 64
	// maxTrainBytes keeps a train inside one UDP datagram's 65507-byte
	// payload limit, which the kernel applies to the message before it
	// cuts it.
	maxTrainBytes = 65000
)

// trainLen returns how many datagrams at the head of a send queue make
// the next train, given the queued lengths (at least one) and the most
// segments a train may have. The head always goes: a datagram too long
// for a train, or for UDP, is a train of one and the kernel's to
// refuse. An empty datagram travels alone, since cutting a buffer
// cannot produce one.
func trainLen(lens []int, maxSegs int) int {
	seg, total, n := lens[0], lens[0], 1
	for seg > 0 && n < len(lens) && n < maxSegs {
		l := lens[n]
		if l == 0 || l > seg || total+l > maxTrainBytes {
			break
		}
		n, total = n+1, total+l
		if l < seg {
			break // a short datagram closes its train
		}
	}
	return n
}

// datagrams returns how many datagrams an n-byte received message of
// segment length seg holds: seg bytes each, the last one what is left.
// A message no longer than its segment is one datagram, empty or not.
func datagrams(n, seg int) int {
	if seg <= 0 || n <= seg {
		return 1
	}
	return (n + seg - 1) / seg
}
