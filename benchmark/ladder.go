package main

import (
	"fmt"
	"net"
	"time"

	"repro/internal/buf"
	"repro/internal/cipher"
	alf "repro/internal/core"
	"repro/internal/ilp"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/xcode"
)

// The ladder times each rung of the datapath alone, the way section 4
// of the paper builds Table 1: kernel, then kernel plus packetizing,
// and so on, so that an end-to-end number can be set against the sum
// of its parts. It does not depend on the workload.

// ladderSink keeps the compiler from discarding a rung's result.
var ladderSink uint64

// timeRung calls fn in batches for about dur and returns the ns per
// call of the median batch. A batch is sized to take at least minBatch,
// so that reading the clock is a small part of it. fn returns a value
// to fold into ladderSink.
func timeRung(dur time.Duration, fn func() uint64) float64 {
	const minBatch = 100 * time.Microsecond
	run := func(n int) time.Duration {
		start := time.Now()
		for i := 0; i < n; i++ {
			ladderSink += fn()
		}
		return time.Since(start)
	}
	batch := 1
	for run(batch) < minBatch {
		batch *= 2
	}
	var batches []float64
	for start := time.Now(); time.Since(start) < dur; {
		batches = append(batches, float64(run(batch)))
	}
	return median(batches) / float64(batch)
}

// runLadder times every rung for about dur each.
func runLadder(dur time.Duration) (map[string]float64, error) {
	m := map[string]float64{}
	key := cipher.ExpandKey(0xFEEDFACE)
	var nonce [cipher.NonceSize]byte
	src, dst := make([]byte, 1024), make([]byte, 1024+16)
	for i := range src {
		src[i] = byte(i * 7)
	}

	m["ilp.copy_sum_ns_per_KiB"] = timeRung(dur, func() uint64 { return ilp.FusedCopySum(dst, src) })

	var blk [cipher.BlockSize]byte
	ctr := uint32(0)
	m["cipher.block_ns"] = timeRung(dur, func() uint64 {
		ctr++
		cipher.Block(&key, &nonce, ctr, &blk)
		return uint64(blk[0])
	})
	var otk [cipher.KeySize]byte
	m["cipher.tagkey_ns"] = timeRung(dur, func() uint64 {
		ctr++
		cipher.TagKey(&key, &nonce, ctr, &otk)
		return uint64(otk[0])
	})

	// Seal and open one fragment as core does: derive the one-time key,
	// run the fused kernel, finish the tag.
	var tag [16]byte
	m["ilp.seal_ns_per_KiB"] = timeRung(dur, func() uint64 {
		cipher.TagKey(&key, &nonce, 1<<30, &otk)
		mac := cipher.NewMAC(&otk)
		ilp.FusedEncryptCopyMAC(dst[:1024], src, &key, &nonce, 0, &mac)
		mac.Sum(tag[:])
		return uint64(tag[0])
	})
	ct := append([]byte(nil), dst[:1024]...)
	opened := true
	m["ilp.open_ns_per_KiB"] = timeRung(dur, func() uint64 {
		cipher.TagKey(&key, &nonce, 1<<30, &otk)
		mac := cipher.NewMAC(&otk)
		ilp.FusedDecryptCopyVerify(dst[:1024], ct, &key, &nonce, 0, &mac)
		opened = opened && mac.Verify(tag[:])
		return uint64(dst[0])
	})
	if !opened {
		return nil, fmt.Errorf("ladder: sealed fragment did not verify")
	}

	send, recv, err := ladderCore(dur)
	if err != nil {
		return nil, err
	}
	m["core.send_aead_ns_per_adu"], m["core.recv_aead_ns_per_adu"] = send, recv

	pool := buf.NewPool()
	m["buf.get_release_ns"] = timeRung(dur, func() uint64 {
		r := pool.Get(1024)
		n := r.Len()
		r.Release()
		return uint64(n)
	})

	sched := sim.NewScheduler()
	fired := uint64(0)
	fire := func() { fired++ }
	m["sim.event_ns"] = timeRung(dur, func() uint64 {
		sched.After(0, fire)
		_ = sched.RunUntil(sched.Now())
		return fired
	})

	m["netsim.forward_ns_per_pkt"] = ladderForward(dur, src)

	raw, err := ladderRawDatagram(dur, src)
	if err != nil {
		return nil, err
	}
	m["udplink.raw_dgram_ns"] = raw
	return m, nil
}

// ladderCore times Sender.Send into a sink that releases each packet,
// then Receiver.HandlePacket fed captured packets: the AEAD endpoints
// with no scheduler events, no link and no application between them.
func ladderCore(dur time.Duration) (sendNs, recvNs float64, err error) {
	const aduBytes, captured = 8 << 10, 256
	cfg := alf.Config{Policy: alf.NoRetransmit, Suite: alf.SuiteAEAD, Key: 0xFEEDFACE, Pool: buf.NewPool()}
	sched := sim.NewScheduler()
	var packets [][]byte // the first `captured` ADUs' wire packets, copied
	capturing := true
	snd, err := alf.NewSender(sched, nil, cfg)
	if err != nil {
		return 0, 0, err
	}
	snd.SendRef = func(ref *buf.Ref) error {
		if capturing {
			packets = append(packets, append([]byte(nil), ref.Bytes()...))
		}
		ref.Release()
		return nil
	}
	data := make([]byte, aduBytes)
	for i := range data {
		data[i] = byte(i * 13)
	}
	tag := uint64(0)
	sendOne := func() uint64 {
		name, _ := snd.Send(tag, xcode.SyntaxRaw, data) // cannot fail: fixed size, nothing retained
		tag++
		return name
	}
	for i := 0; i < captured; i++ {
		sendOne()
	}
	capturing = false
	sendNs = timeRung(dur, sendOne)

	// A packet is new to a receiver only once, so each round replays
	// the captured ADUs into a fresh Receiver. Building one costs about
	// as much as handling one fragment; it is spread over 256 ADUs.
	var delivered int64
	var rounds []float64
	for start := time.Now(); time.Since(start) < dur; {
		round := time.Now()
		// Its own scheduler too, so the gap-scan timers of finished
		// rounds are not kept alive in one ever-growing queue.
		rcv, err := alf.NewReceiver(sim.NewScheduler(), nil, cfg)
		if err != nil {
			return 0, 0, err
		}
		rcv.OnADU = func(a alf.ADU) { delivered++; a.Release() }
		for _, p := range packets {
			_ = rcv.HandlePacket(p) // a rejected packet shows as a short delivery count below
		}
		rounds = append(rounds, float64(time.Since(round)))
	}
	recvNs = median(rounds) / captured
	if want := int64(len(rounds)) * captured; delivered != want {
		return 0, 0, fmt.Errorf("ladder: replay delivered %d of %d ADUs", delivered, want)
	}
	return sendNs, recvNs, nil
}

// ladderForward times one packet across the sim workloads' two-hop
// zero-delay route: copy into a pooled buffer, two link events, router
// lookup, handler.
func ladderForward(dur time.Duration, payload []byte) float64 {
	sched := sim.NewScheduler()
	n := netsim.New(sched, 1)
	n.SetPool(buf.NewPool())
	src, rtr, dst := n.NewNode("src"), n.NewRouter("rtr"), n.NewNode("dst")
	first := n.NewLink(src, rtr.Node, netsim.LinkConfig{})
	exit := n.NewLink(rtr.Node, dst, netsim.LinkConfig{})
	rtr.AddRoute(dst, exit)
	got := uint64(0)
	dst.SetHandler(func(p *netsim.Packet) { got += uint64(len(p.Payload)) })
	return timeRung(dur, func() uint64 {
		_ = netsim.SendVia(first, dst, payload) // unbounded queue: cannot fail
		_ = sched.RunUntil(sched.Now())
		return got
	})
}

// ladderRawDatagram times one 1 KiB datagram written to and read from a
// bare loopback socket pair on one goroutine: the kernel's floor under
// udplink, with no Clock, no reader goroutine and no pool.
func ladderRawDatagram(dur time.Duration, payload []byte) (float64, error) {
	a, err := net.ListenPacket("udp4", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("ladder: loopback socket: %w", err)
	}
	defer a.Close()
	b, err := net.ListenPacket("udp4", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("ladder: loopback socket: %w", err)
	}
	defer b.Close()
	if err := b.SetReadDeadline(time.Now().Add(dur + 10*time.Second)); err != nil {
		return 0, err
	}
	in := make([]byte, 2048)
	var ioErr error
	ns := timeRung(dur, func() uint64 {
		if _, err := a.WriteTo(payload, b.LocalAddr()); err != nil {
			ioErr = err
		}
		n, _, err := b.ReadFrom(in)
		if err != nil {
			ioErr = err
		}
		return uint64(n)
	})
	if ioErr != nil {
		return 0, fmt.Errorf("ladder: raw datagram: %w", ioErr)
	}
	return ns, nil
}
