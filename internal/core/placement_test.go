package alf

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/ilp"
	"repro/internal/sim"
	"repro/internal/wire"
	"repro/internal/xcode"
)

// modelADU is an ADU under reassembly in placeModel: the map from
// fragment offset to length that the receiver kept before its bitset,
// and FEC parities by offset.
type modelADU struct {
	total    int
	check    uint16
	buf      []byte
	got      map[int]int
	parities map[int][]byte
	gotBytes int
	sum      uint64
}

// placeModel is the receiver's data path for one cleartext stream under
// NoRetransmit, written out plainly: late and duplicate filtering,
// placement, FEC parity and reconstruction, completion and its
// checksum, and a scan that gives up every unsettled name.
type placeModel struct {
	group, frag int // the receiver's FECGroup and fragment payload
	cum, top    uint64
	parts       map[uint64]*modelADU
	settled     map[uint64]bool
	stats       ReceiverStats
	delivered   []string
	lost        []uint64
}

func (m *placeModel) handle(pkt []byte) {
	h, err := wire.ParseHeader(pkt)
	if err != nil {
		panic(err) // the test feeds only what the senders made
	}
	m.stats.WireBytes += int64(len(pkt))
	if h.Name < m.cum || m.settled[h.Name] {
		m.stats.LateFragments++
		return
	}
	m.top = max(m.top, h.Name+1)
	a := m.parts[h.Name]
	if a == nil {
		a = &modelADU{total: h.TotalLen, check: h.ADUCheck, buf: make([]byte, h.TotalLen),
			got: map[int]int{}, parities: map[int][]byte{}}
		m.parts[h.Name] = a
	}
	payload := pkt[HeaderSize : HeaderSize+h.FragLen]
	if h.Flags&wire.FlagParity != 0 {
		if _, dup := a.parities[h.FragOff]; dup {
			m.stats.DupFragments++
		} else {
			a.parities[h.FragOff] = slices.Clone(payload)
			m.stats.ParityFrags++
			m.reconstruct(a, h.FragOff)
		}
	} else {
		if _, dup := a.got[h.FragOff]; dup {
			m.stats.DupFragments++
			return
		}
		m.place(a, h.FragOff, payload)
		m.stats.Fragments++
		m.stats.FragmentBytes += int64(h.FragLen)
		if len(a.parities) > 0 && m.group > 0 {
			m.reconstruct(a, h.FragOff/(m.group*m.frag)*(m.group*m.frag))
		}
	}
	if a.gotBytes >= a.total {
		m.complete(h.Name, a)
	}
}

func (m *placeModel) place(a *modelADU, off int, payload []byte) {
	a.sum += ilp.FusedCopySum(a.buf[off:off+len(payload)], payload)
	a.got[off] = len(payload)
	a.gotBytes += len(payload)
	m.stats.ILPPassBytes += int64(len(payload))
}

func (m *placeModel) reconstruct(a *modelADU, gs int) {
	parity, ok := a.parities[gs]
	if !ok || m.group <= 0 {
		return
	}
	missing := -1
	for off := gs; off < a.total && off < gs+m.group*m.frag; off += m.frag {
		if _, have := a.got[off]; !have {
			if missing >= 0 {
				return
			}
			missing = off
		}
	}
	if missing < 0 {
		return
	}
	n := min(a.total-missing, m.frag)
	if n > len(parity) {
		m.stats.Inconsistent++
		return
	}
	recon := slices.Clone(parity)
	for off := gs; off < a.total && off < gs+m.group*m.frag; off += m.frag {
		if k, have := a.got[off]; have {
			for i := range min(k, len(recon)) {
				recon[i] ^= a.buf[off+i]
			}
		}
	}
	m.stats.FECRecovered++
	m.place(a, missing, recon[:n])
}

func (m *placeModel) complete(name uint64, a *modelADU) {
	delete(m.parts, name)
	if ilp.FinishSum(a.sum) != a.check {
		m.stats.ChecksumFails++
		return // a gap again
	}
	if name > m.cum {
		m.stats.OutOfOrder++
	}
	m.stats.ADUsDelivered++
	m.stats.DeliveredBytes += int64(a.total)
	m.delivered = append(m.delivered, fmt.Sprintf("%d:%x", name, a.buf))
	m.settle(name)
}

func (m *placeModel) settle(name uint64) {
	m.settled[name] = true
	for m.settled[m.cum] {
		delete(m.settled, m.cum)
		m.cum++
	}
	m.top = max(m.top, m.cum)
}

// scan gives up every unsettled name of the window, lowest first
// (settle moves cum past the names it settles).
func (m *placeModel) scan() {
	for name := m.cum; name < m.top; name++ {
		if name >= m.cum && !m.settled[name] {
			delete(m.parts, name)
			m.stats.ADUsLost++
			m.lost = append(m.lost, name)
			m.settle(name)
		}
	}
}

// TestPlacementMatchesModel drives random fragment sequences into the
// receiver and into placeModel, which keeps its fragments in a map, and
// holds deliveries, OnLost and ReceiverStats equal after every step.
// The fragments come from two senders of the same ADUs, one with the
// receiver's MTU and one with another, with and without FEC parity,
// zero-length ADUs among them; a sequence repeats, drops and reorders
// them, and now and then lets a scan give up what is unsettled.
func TestPlacementMatchesModel(t *testing.T) {
	const frag = 256
	for _, c := range []struct {
		group, otherFrag int
	}{{0, 128}, {0, 200}, {2, 128}, {4, 128}, {3, 200}, {4, 256}} {
		t.Run(fmt.Sprintf("fec%d_other%d", c.group, c.otherFrag), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(c.group*1000 + c.otherFrag)))
			cfg := Config{Policy: NoRetransmit, HoldTime: 1, FECGroup: c.group, MTU: frag + HeaderSize}
			other := cfg
			other.MTU = c.otherFrag + HeaderSize
			var pool [][]byte
			mine := capturingSender(t, cfg, &pool)
			theirs := capturingSender(t, other, &pool)
			const adus = 8
			for name := range adus {
				n := []int{0, 8, frag - 8, frag, 3*frag + 40, 7*frag + 8, 9 * frag}[rng.Intn(7)]
				data := make([]byte, n)
				rng.Read(data)
				for _, snd := range []*Sender{mine, theirs} {
					if _, err := snd.Send(uint64(name), xcode.SyntaxRaw, data); err != nil {
						t.Fatal(err)
					}
				}
			}
			var total ReceiverStats
			for seq := range 100 {
				s := sim.NewScheduler()
				rcv, err := NewReceiver(s, nil, cfg)
				if err != nil {
					t.Fatal(err)
				}
				m := &placeModel{group: c.group, frag: frag, parts: map[uint64]*modelADU{}, settled: map[uint64]bool{}}
				var delivered []string
				var lost []uint64
				rcv.OnADU = func(a ADU) {
					delivered = append(delivered, fmt.Sprintf("%d:%x", a.Name, a.Data))
					a.Release()
				}
				rcv.OnLost = func(name uint64) { lost = append(lost, name) }
				for step := range 3 * len(pool) {
					what := "scan"
					if rng.Intn(40) == 0 {
						_ = s.RunFor(rcv.cfg.NackInterval)
						m.scan()
					} else {
						i := rng.Intn(len(pool))
						what = fmt.Sprintf("packet %d", i)
						_ = rcv.HandlePacket(pool[i])
						m.handle(pool[i])
					}
					if rcv.Stats != m.stats || !slices.Equal(delivered, m.delivered) || !slices.Equal(lost, m.lost) {
						t.Fatalf("sequence %d, step %d (%s): receiver and model part\nstats %+v\nmodel %+v\ndelivered %d, model %d; lost %v, model %v",
							seq, step, what, rcv.Stats, m.stats, len(delivered), len(m.delivered), lost, m.lost)
					}
				}
				total.DupFragments += m.stats.DupFragments
				total.LateFragments += m.stats.LateFragments
				total.ADUsDelivered += m.stats.ADUsDelivered
				total.ADUsLost += m.stats.ADUsLost
				total.FECRecovered += m.stats.FECRecovered
			}
			if total.DupFragments == 0 || total.LateFragments == 0 || total.ADUsDelivered == 0 || total.ADUsLost == 0 ||
				c.group > 0 && total.FECRecovered == 0 {
				t.Errorf("the sequences left a path untried: %+v", total)
			}
		})
	}
}
