package pmu

import (
	"math/rand"
	"testing"
)

// refTickN is the all-counters reference for Tick/TickN: it visits every
// one of the 29 mhpmcounters and applies the inhibit and selection tests
// itself, ignoring the live mask. n == 1 takes the Tick path.
func refTickN(p *PMU, sample Sample, retired int, n uint64) {
	if p.inhibit&1 == 0 {
		p.mcycle += n
	}
	if p.inhibit&4 == 0 {
		p.minstret += uint64(retired) * n
	}
	for i := range p.counters {
		if p.inhibit&(1<<uint(i+3)) != 0 || len(p.selected[i]) == 0 {
			continue
		}
		buf := p.scratch[i]
		any := false
		for j, idx := range p.selected[i] {
			buf[j] = sample[idx]
			any = any || buf[j] != 0
		}
		if !any && p.Arch != Distributed {
			continue
		}
		if n == 1 {
			p.counters[i].tick(buf)
		} else {
			p.counters[i].tickN(buf, n)
		}
	}
}

// randomSelector picks an event set of testSpace (or one past it, which
// selects nothing) and a mask over its low bits, sometimes empty.
func randomSelector(r *rand.Rand) Selector {
	return Selector{Set: uint8(r.Intn(4)), Mask: uint64(r.Intn(8))}
}

// randomInhibit mixes all-inhibited, all-enabled and random registers.
func randomInhibit(r *rand.Rand) uint64 {
	switch r.Intn(4) {
	case 0:
		return 0
	case 1:
		return ^uint64(0)
	}
	return r.Uint64()
}

// TestLiveSetMatchesAllCounterWalk drives a seeded random sequence of
// every operation that changes inhibit or selection — Configure, the
// mcountinhibit and mhpmevent CSR writes, SetInhibit, EnableAll, Reset —
// interleaved with Tick/TickN over random samples, and checks that the
// live-mask tick loops leave every counter exactly where the
// all-counters reference walk does.
func TestLiveSetMatchesAllCounterWalk(t *testing.T) {
	s := testSpace(t)
	for _, arch := range []Architecture{Scalar, AddWires, Distributed} {
		got, ref := New(s, arch), New(s, arch)
		r := rand.New(rand.NewSource(int64(arch) + 42))
		sample := s.NewSample()
		var counted uint64
		for step := 0; step < 4000; step++ {
			op := r.Intn(10)
			for _, p := range []*PMU{got, ref} {
				pr := rand.New(rand.NewSource(int64(step)))
				switch op {
				case 0:
					if err := p.Configure(pr.Intn(NumHPMCounters), randomSelector(pr)); err != nil {
						t.Fatal(err)
					}
				case 1:
					p.WriteCSR(CSRMCountInhibit, randomInhibit(pr))
				case 2:
					p.WriteCSR(uint16(CSRMHPMEvent3+pr.Intn(NumHPMCounters)), randomSelector(pr).Encode())
				case 3:
					p.SetInhibit(randomInhibit(pr))
				case 4:
					if pr.Intn(4) == 0 {
						p.EnableAll()
					}
				case 5:
					if pr.Intn(50) == 0 {
						p.Reset()
					}
				}
			}
			if op >= 6 {
				sample.Reset()
				for e, ev := range s.Events {
					sample.AssertN(e, r.Intn(ev.Sources+1))
				}
				retired := r.Intn(3)
				n := uint64(1)
				if op >= 8 {
					n = uint64(r.Intn(40) + 1)
				}
				if n == 1 {
					got.Tick(sample, retired)
				} else {
					got.TickN(sample, retired, n)
				}
				refTickN(ref, sample, retired, n)
			}
			for i := 0; i < NumHPMCounters; i++ {
				if got.Read(i) != ref.Read(i) || got.Residue(i) != ref.Residue(i) || got.Lost(i) != ref.Lost(i) {
					t.Fatalf("%v step %d counter %d: read/residue/lost %d/%d/%d, reference %d/%d/%d",
						arch, step, i, got.Read(i), got.Residue(i), got.Lost(i),
						ref.Read(i), ref.Residue(i), ref.Lost(i))
				}
				counted += got.Read(i)
			}
			if got.Cycles() != ref.Cycles() || got.Instret() != ref.Instret() {
				t.Fatalf("%v step %d: cycles/instret %d/%d, reference %d/%d",
					arch, step, got.Cycles(), got.Instret(), ref.Cycles(), ref.Instret())
			}
		}
		if counted == 0 {
			t.Fatalf("%v: no counter ever counted; the sequence exercises nothing", arch)
		}
	}
}
