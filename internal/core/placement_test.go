package alf

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/ilp"
	"repro/internal/sim"
	"repro/internal/wire"
	"repro/internal/xcode"
)

// modelADU is an ADU under reassembly in placeModel: the set of
// fragment offsets placed, and FEC parities by offset. A fragment's
// length is the grid's, so neither keeps one.
type modelADU struct {
	total    int
	check    uint16
	buf      []byte
	got      map[int]bool
	parities map[int][]byte
	gotBytes int
	sum      uint64
}

// placeModel is the receiver's data path for one cleartext stream under
// NoRetransmit, written out plainly: late filtering, refusal of what is
// off the grid, duplicate filtering, placement, FEC parity and
// reconstruction, completion and its checksum, and a scan that gives up
// every unsettled name.
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
	parity := h.Flags&wire.FlagParity != 0
	if h.FragOff%m.frag != 0 || h.FragLen != m.length(h.TotalLen, h.FragOff) || h.FragOff > 0 && h.FragOff == h.TotalLen ||
		parity && (m.group == 0 || h.FragOff%(m.group*m.frag) != 0) {
		m.stats.Inconsistent++
		return
	}
	m.top = max(m.top, h.Name+1)
	a := m.parts[h.Name]
	if a == nil {
		a = &modelADU{total: h.TotalLen, check: h.ADUCheck, buf: make([]byte, h.TotalLen),
			got: map[int]bool{}, parities: map[int][]byte{}}
		m.parts[h.Name] = a
	}
	payload := pkt[HeaderSize : HeaderSize+h.FragLen]
	if parity {
		if _, dup := a.parities[h.FragOff]; dup {
			m.stats.DupFragments++
		} else {
			a.parities[h.FragOff] = slices.Clone(payload)
			m.stats.ParityFrags++
			m.reconstruct(a, h.FragOff)
		}
	} else {
		if a.got[h.FragOff] {
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

// length is the grid's length of the fragment at off of an ADU of
// total bytes.
func (m *placeModel) length(total, off int) int { return min(m.frag, total-off) }

func (m *placeModel) place(a *modelADU, off int, payload []byte) {
	a.sum += ilp.FusedCopySum(a.buf[off:off+len(payload)], payload)
	a.got[off] = true
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
		if !a.got[off] {
			if missing >= 0 {
				return
			}
			missing = off
		}
	}
	if missing < 0 {
		return
	}
	recon := slices.Clone(parity)
	for off := gs; off < a.total && off < gs+m.group*m.frag; off += m.frag {
		if a.got[off] {
			for i := range m.length(a.total, off) {
				recon[i] ^= a.buf[off+i]
			}
		}
	}
	m.stats.FECRecovered++
	m.place(a, missing, recon[:m.length(a.total, missing)])
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
// them, and now and then lets a scan give up what is unsettled. The
// other sender's fragments are refused where they leave the receiver's
// grid, so no ADU completes with a hole in it: no checksum fails.
func TestPlacementMatchesModel(t *testing.T) {
	const frag = 256
	var checksumFails, inconsistent int64
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
				checksumFails += m.stats.ChecksumFails
				inconsistent += m.stats.Inconsistent
			}
			if total.DupFragments == 0 || total.LateFragments == 0 || total.ADUsDelivered == 0 || total.ADUsLost == 0 ||
				c.group > 0 && total.FECRecovered == 0 {
				t.Errorf("the sequences left a path untried: %+v", total)
			}
		})
	}
	if checksumFails != 0 || inconsistent == 0 {
		t.Errorf("%d checksums failed over every case, and %d fragments were refused off the grid; want 0 and some",
			checksumFails, inconsistent)
	}
}

// TestOffGridNeverDelivers feeds a receiver fragments of one ADU from
// two genuine senders of its stream, one on its grid and one off it,
// and then the genuine fragment that completes the ADU. Each fragment
// off the grid is refused as inconsistent before it makes any state:
// none takes part in a delivery, which the genuine fragments then make
// intact. The arms are the AEAD case, where three fragments that cover
// 384 of 512 bytes would pass for the whole ADU since no checksum
// follows the tags; a cleartext one whose off-grid tail has the very
// length the grid gives there, so only its offset shows it; and a
// parity of a sender with another FEC group, at an offset that starts
// none of the receiver's groups.
func TestOffGridNeverDelivers(t *testing.T) {
	const frag = 256
	// fragment returns the packet of pkts at off, a parity or not.
	fragment := func(t *testing.T, pkts [][]byte, off int, parity bool) []byte {
		for _, p := range pkts {
			h, err := wire.ParseHeader(p)
			if err != nil {
				t.Fatal(err)
			}
			if h.FragOff == off && (h.Flags&wire.FlagParity != 0) == parity {
				return p
			}
		}
		t.Fatalf("no fragment at %d (parity %v)", off, parity)
		return nil
	}
	aead := aeadCfg()
	aead.MTU = HeaderSize + frag + wire.TagSize
	plain := Config{MTU: HeaderSize + frag}
	fec := Config{MTU: HeaderSize + frag, FECGroup: 2}
	for _, c := range []struct {
		name         string
		cfg          Config
		other        func(Config) Config
		n            int
		mine, theirs []int // the fragments fed: own data offsets first, then the other sender's
		parity       bool  // the other sender's are parities
	}{
		{"aead", aead, func(c Config) Config { c.MTU = HeaderSize + frag/2 + wire.TagSize; return c },
			512, []int{0}, []int{128, 256}, false},
		{"none", plain, func(c Config) Config { c.MTU = HeaderSize + frag/2; return c },
			400, []int{0}, []int{128, 384}, false},
		{"parity", fec, func(c Config) Config { c.FECGroup = 1; return c },
			4 * frag, []int{0, 2 * frag, 3 * frag}, []int{frag}, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			data := payload(c.n, 0x3C)
			var mine, theirs [][]byte
			for _, s := range []struct {
				cfg  Config
				pkts *[][]byte
			}{{c.cfg, &mine}, {c.other(c.cfg), &theirs}} {
				if _, err := capturingSender(t, s.cfg, s.pkts).Send(0, xcode.SyntaxRaw, data); err != nil {
					t.Fatal(err)
				}
			}
			rcv, err := NewReceiver(sim.NewScheduler(), nil, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			var got [][]byte
			rcv.OnADU = func(a ADU) {
				got = append(got, slices.Clone(a.Data))
				a.Release()
			}
			for _, off := range c.mine {
				if err := rcv.HandlePacket(fragment(t, mine, off, false)); err != nil {
					t.Fatal(err)
				}
			}
			for _, off := range c.theirs {
				_ = rcv.HandlePacket(fragment(t, theirs, off, c.parity))
			}
			if len(got) != 0 || rcv.Stats.Inconsistent != int64(len(c.theirs)) || rcv.Stats.AuthFails != 0 || rcv.Stats.ChecksumFails != 0 {
				t.Fatalf("%d ADUs delivered, %d fragments refused as inconsistent of %d off the grid, %d tags and %d checksums failed",
					len(got), rcv.Stats.Inconsistent, len(c.theirs), rcv.Stats.AuthFails, rcv.Stats.ChecksumFails)
			}
			// What completes the ADU: the on-grid sender's second data
			// fragment, or its parity of the group that lacks one.
			last := fragment(t, mine, frag, false)
			if c.parity {
				last = fragment(t, mine, 0, true)
			}
			if err := rcv.HandlePacket(last); err != nil {
				t.Fatal(err)
			}
			if len(got) != 1 || !bytes.Equal(got[0], data) {
				t.Fatalf("%d ADUs delivered, want the ADU intact", len(got))
			}
		})
	}
}
