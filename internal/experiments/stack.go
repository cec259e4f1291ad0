package experiments

import (
	"fmt"
	"math/rand"
	"time"

	alf "repro/internal/core"
	"repro/internal/ilp"
	"repro/internal/layered"
	"repro/internal/netsim"
	"repro/internal/otp"
	"repro/internal/sim"
	"repro/internal/xcode"
)

// StackReport reproduces the paper's §4 TCP+ISODE experiment (E4): the
// complete layered stack moving a long OCTET STRING (baseline, no real
// conversion) versus an equal-length array of 32-bit integers
// (conversion-intensive), measured in host CPU time.
type StackReport struct {
	Codec      string
	ValueBytes int
	Values     int

	OctetMbps float64 // baseline: OCTET STRING payload
	IntMbps   float64 // conversion-intensive: []int32 payload
	Slowdown  float64 // OctetMbps / IntMbps (the paper's ~30x)

	// PresentationShare estimates the fraction of the
	// conversion-intensive stack's processing attributable to the
	// presentation layer (the paper's ~97%), from the wall-clock
	// difference against the baseline stack.
	PresentationShare float64
}

// stackRig is a layered stack over an impairment-free loopback used for
// CPU-cost measurement (virtual network time is free; every measured
// nanosecond is protocol processing).
type stackRig struct {
	sched *sim.Scheduler
	snd   *layered.Stack
	rcv   *layered.Stack
	got   int
}

func newStackRig(codec xcode.Codec, seed int64) *stackRig {
	s, a, b, ab, ba := twoNodes(seed, netsim.LinkConfig{})
	oc := otp.Config{MSS: 4096, SendWindow: 1 << 22, RecvWindow: 1 << 22, SendBuffer: 1 << 26}
	ca, cb := otp.Connect(s, a, b, ab, ba, oc, oc)
	r := &stackRig{sched: s}
	r.snd = layered.New(ca, codec, 0)
	r.rcv = layered.New(cb, codec, 0)
	r.rcv.OnValue = func(v xcode.Value) { r.got++ }
	return r
}

// transfer pushes values through the stack and runs the event loop to
// completion, returning an error if any value was lost.
func (r *stackRig) transfer(vals []xcode.Value) error {
	start := r.got
	for i := range vals {
		if err := r.snd.SendValue(vals[i]); err != nil {
			return err
		}
	}
	r.sched.Run()
	if r.got-start != len(vals) {
		return fmt.Errorf("stack delivered %d of %d values", r.got-start, len(vals))
	}
	return nil
}

// ILPStackReport is E6: the same workloads as E4 carried by the ALF
// transport with ILP-fused processing at both ends — the paper's
// proposed architecture measured against the layered status quo.
//
// Receive-side data passes for the integer workload:
//
//	layered: transport checksum, record copy, record carve,
//	         presentation decode, result allocation  (4-5 passes)
//	ALF/ILP: fragment placement fused with checksum (stage one),
//	         BER decode fused with the scatter into the caller's
//	         array (stage two)                        (2 passes)
type ILPStackReport struct {
	ValueBytes int
	Values     int

	OctetMbps float64 // raw-syntax ADUs (no conversion)
	IntMbps   float64 // BER int arrays, fused encode/decode
}

// RunStackILP measures E6 on the same loopback arrangement as RunStack.
func RunStackILP(valueBytes, values int, minTime time.Duration) (ILPStackReport, error) {
	rep := ILPStackReport{ValueBytes: valueBytes, Values: values}

	octets := make([]byte, valueBytes)
	rand.New(rand.NewSource(7)).Read(octets)
	ints := make([]int32, valueBytes/4)
	rnd := rand.New(rand.NewSource(8))
	for i := range ints {
		ints[i] = int32(rnd.Uint32())
	}

	// Preallocated buffers: the steady-state data path allocates only
	// inside the transport (fragment packets), as a real system would
	// pool.
	encBuf := make([]byte, 0, valueBytes*2)
	out := make([]int32, len(ints))

	run := func(useInts bool) (float64, error) {
		s, a, b, ab, ba := twoNodes(13, netsim.LinkConfig{})
		acfg := alf.Config{MTU: valueBytes*2 + alf.HeaderSize + 8}
		snd, rcv, err := alf.Connect(s, a, b, ab, ba, acfg)
		if err != nil {
			return 0, err
		}

		// The first error ends the measurement: every later call is a
		// no-op and run returns it.
		got := 0
		rcv.OnADU = func(adu alf.ADU) {
			// Stage two: the application's fused presentation pass.
			if adu.Syntax == xcode.SyntaxBER {
				if _, _, e := ilp.DecodeBERInt32sInto(adu.Data, out); e != nil && err == nil {
					err = e
				}
			}
			got++
		}
		transfer := func() {
			start := got
			for i := 0; i < values && err == nil; i++ {
				if useInts {
					// Sender-side fused conversion + checksum; ALF's own
					// fused copy+checksum carries it to the wire.
					encBuf, _ = ilp.EncodeBERInt32sChecksum(encBuf[:0], ints)
					_, err = snd.Send(uint64(i), xcode.SyntaxBER, encBuf)
				} else {
					_, err = snd.Send(uint64(i), xcode.SyntaxRaw, octets)
				}
			}
			if err == nil {
				err = s.Run()
			}
			if err == nil && got-start != values {
				err = fmt.Errorf("ilp stack delivered %d of %d", got-start, values)
			}
		}
		mbps := rate(valueBytes*values, minTime, transfer)
		return mbps, err
	}

	var err error
	if rep.OctetMbps, err = run(false); err != nil {
		return rep, err
	}
	if rep.IntMbps, err = run(true); err != nil {
		return rep, err
	}
	return rep, nil
}

// RunStack measures E4 with the given codec: values values of
// valueBytes bytes per transfer, timed by measure over minTime.
func RunStack(codec xcode.Codec, valueBytes, values int, minTime time.Duration) (StackReport, error) {
	rep := StackReport{Codec: codec.Name(), ValueBytes: valueBytes, Values: values}

	octets := make([]byte, valueBytes)
	rand.New(rand.NewSource(5)).Read(octets)
	ints := make([]int32, valueBytes/4)
	rnd := rand.New(rand.NewSource(6))
	for i := range ints {
		ints[i] = int32(rnd.Uint32())
	}

	octetVals := make([]xcode.Value, values)
	intVals := make([]xcode.Value, values)
	for i := range octetVals {
		octetVals[i] = xcode.BytesValue(octets)
		intVals[i] = xcode.Int32sValue(ints)
	}

	var err error
	timeCase := func(rig *stackRig, vals []xcode.Value) float64 {
		return rate(valueBytes*values, minTime, func() {
			if e := rig.transfer(vals); e != nil && err == nil {
				err = e
			}
		})
	}

	rep.OctetMbps = timeCase(newStackRig(codec, 11), octetVals)
	rep.IntMbps = timeCase(newStackRig(codec, 12), intVals)
	if rep.IntMbps > 0 {
		rep.Slowdown = rep.OctetMbps / rep.IntMbps
	}
	// Per-byte processing time difference attributes the extra cost to
	// presentation conversion: share = (tInt - tOctet) / tInt.
	if rep.OctetMbps > 0 && rep.IntMbps > 0 {
		tOctet := 1 / rep.OctetMbps
		tInt := 1 / rep.IntMbps
		rep.PresentationShare = (tInt - tOctet) / tInt
	}
	return rep, err
}
