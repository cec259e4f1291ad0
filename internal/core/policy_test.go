package alf

import (
	"bytes"
	"sort"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/wire"
	"repro/internal/xcode"
)

// dropRig is a pair whose data path drops chosen ADU names
// deterministically: names in always are black-holed on every
// transmission, names in once lose only their first copy.
type dropRig struct {
	*pair
	dropped map[uint64]int
}

func newDropRig(t *testing.T, cfg Config, always, once map[uint64]bool) *dropRig {
	t.Helper()
	p := newPair(t, netsim.LinkConfig{Delay: time.Millisecond}, cfg, 1)
	d := &dropRig{pair: p, dropped: map[uint64]int{}}
	reinstallReceiver(p, func(pkt []byte) {
		if wire.TypeOf(pkt) == wire.TypeData {
			if h, err := wire.ParseHeader(pkt); err == nil {
				if always[h.Name] || (once[h.Name] && d.dropped[h.Name] == 0) {
					d.dropped[h.Name]++
					return
				}
			}
		}
		p.rcv.HandlePacket(pkt)
	})
	return d
}

// TestAppRecomputeUnfilledNack: when the application cannot regenerate
// an ADU (OnResend ok=false), every NACK for it goes unfilled and the
// receiver eventually reports the loss. On a lossless control path the
// accounting is exact: each abandoned name costs precisely MaxNacks
// unfilled resend attempts, so sender and receiver books must agree.
func TestAppRecomputeUnfilledNack(t *testing.T) {
	cfg := Config{
		Policy:       AppRecompute,
		NackDelay:    5 * time.Millisecond,
		NackInterval: 5 * time.Millisecond,
		MaxNacks:     4,
		HoldTime:     40 * time.Millisecond,
	}
	// Names 3 and 7 are black-holed and unrecomputable; name 5 loses
	// its first copy but the app can rebuild it.
	refused := map[uint64]bool{3: true, 7: true}
	d := newDropRig(t, cfg, refused, map[uint64]bool{5: true})

	refusedCalls := 0
	d.snd.OnResend = func(name uint64) (uint64, xcode.SyntaxID, []byte, bool) {
		if refused[name] {
			refusedCalls++
			return 0, 0, nil, false
		}
		return name, xcode.SyntaxRaw, payload(600, byte(name)), true
	}

	const n = 10
	for i := 0; i < n; i++ {
		d.snd.Send(uint64(i), xcode.SyntaxRaw, payload(600, byte(i)))
	}
	d.sched.Run()

	if len(d.adus) != n-len(refused) {
		t.Fatalf("delivered %d, want %d", len(d.adus), n-len(refused))
	}
	sort.Slice(d.lost, func(i, j int) bool { return d.lost[i] < d.lost[j] })
	if len(d.lost) != 2 || d.lost[0] != 3 || d.lost[1] != 7 {
		t.Fatalf("lost = %v, want [3 7]", d.lost)
	}
	// Sender and receiver ledgers must agree exactly: each reported
	// loss burned the full NACK budget, every attempt unfilled.
	want := int64(cfg.MaxNacks) * int64(len(d.lost))
	if d.snd.Stats.UnfilledNacks != want {
		t.Errorf("UnfilledNacks = %d, want MaxNacks(%d) x lost(%d) = %d",
			d.snd.Stats.UnfilledNacks, cfg.MaxNacks, len(d.lost), want)
	}
	if got := int64(refusedCalls); d.snd.Stats.UnfilledNacks != got {
		t.Errorf("UnfilledNacks = %d but OnResend refused %d times",
			d.snd.Stats.UnfilledNacks, got)
	}
	if int64(len(d.lost)) != d.rcv.Stats.ADUsLost {
		t.Errorf("OnLost fired %d times, Stats.ADUsLost = %d",
			len(d.lost), d.rcv.Stats.ADUsLost)
	}
	// Name 5 was recomputed, not abandoned.
	if d.snd.Stats.RecomputeADUs != 1 {
		t.Errorf("RecomputeADUs = %d, want 1", d.snd.Stats.RecomputeADUs)
	}
	adu5 := d.aduByName(5)
	if adu5 == nil {
		t.Fatal("recomputable ADU 5 never delivered")
	}
	if !bytes.Equal(adu5.Data, payload(600, 5)) {
		t.Error("ADU 5 corrupted by recompute path")
	}
	// Everything is settled: abandoned names count toward the frontier.
	if d.rcv.Settled() != n {
		t.Errorf("settled = %d, want %d", d.rcv.Settled(), n)
	}
}

// TestNoRetransmitLossAccounting: a NoRetransmit stream never chases
// losses — the receiver reports them (OnLost and Stats.ADUsLost agree
// on exactly the dropped names), issues no NACKs, and the sender's
// recovery counters all stay zero even if a stray NACK shows up.
func TestNoRetransmitLossAccounting(t *testing.T) {
	cfg := Config{
		Policy:       NoRetransmit,
		NackInterval: 5 * time.Millisecond,
		HoldTime:     30 * time.Millisecond,
	}
	dropped := map[uint64]bool{2: true, 6: true}
	d := newDropRig(t, cfg, dropped, nil)

	const n = 9
	for i := 0; i < n; i++ {
		d.snd.Send(uint64(i), xcode.SyntaxRaw, payload(500, byte(i)))
	}
	// A forged NACK (a confused or malicious peer) must be ignored
	// without touching the resend or unfilled counters.
	d.sched.After(20*time.Millisecond, func() {
		d.snd.HandleControl(wire.EncodeControl(nil, &wire.Control{Stream: cfg.StreamID, Nacks: []uint64{2}}))
	})
	d.sched.Run()

	sort.Slice(d.lost, func(i, j int) bool { return d.lost[i] < d.lost[j] })
	if len(d.lost) != 2 || d.lost[0] != 2 || d.lost[1] != 6 {
		t.Fatalf("lost = %v, want [2 6]", d.lost)
	}
	if int64(len(d.lost)) != d.rcv.Stats.ADUsLost {
		t.Errorf("OnLost fired %d times, Stats.ADUsLost = %d",
			len(d.lost), d.rcv.Stats.ADUsLost)
	}
	if len(d.adus)+len(d.lost) != n {
		t.Errorf("delivered %d + lost %d != submitted %d", len(d.adus), len(d.lost), n)
	}
	if d.rcv.Stats.NacksSent != 0 {
		t.Errorf("NoRetransmit receiver sent %d NACKs", d.rcv.Stats.NacksSent)
	}
	st := d.snd.Stats
	if st.ResentADUs != 0 || st.RecomputeADUs != 0 || st.UnfilledNacks != 0 {
		t.Errorf("sender recovery counters moved: resent=%d recomputed=%d unfilled=%d",
			st.ResentADUs, st.RecomputeADUs, st.UnfilledNacks)
	}
	if d.rcv.Settled() != n {
		t.Errorf("settled = %d, want %d", d.rcv.Settled(), n)
	}
}
