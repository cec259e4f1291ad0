package tracing

import "repro/internal/wire"

// sniffInto fills e's identity fields (Proto, ID, ADU, Off) when the
// payload is a frame format this repository knows. The network layer
// is deliberately payload-opaque (endpoints hand netsim a []byte and
// nothing else), but a useful drop annotation has to say *which* ADU
// died on the wire; rather than widen the transport API with identity
// side-channels, the tracer asks wire.Peek, the one classifier of the
// frame formats. (It cannot ask the protocol packages themselves: core,
// otp and netsim all import tracing. wire is a leaf.) Len is left as
// set by the caller (the full wire size) except for OTP data, where it
// becomes the payload length so drop ranges line up with stream
// offsets.
func sniffInto(e *Event, pkt []byte) {
	p := wire.Peek(pkt)
	if p.Kind == wire.KindNone {
		return
	}
	e.Proto, e.ID, e.ADU, e.Off = p.Kind, p.ID, p.Name, int64(p.Off)
	if p.Kind == wire.KindOTPData {
		e.Len = p.Len
	}
}
