package perf

import (
	"fmt"

	"icicle/internal/obs"
	"icicle/internal/pmu"
)

// mpxRotations counts counter-window rotations process-wide: the
// observable cost of multiplexing (each rotation is a reprogram of the
// counter file and a scaling-error opportunity). Per-run counts are on
// Multiplexer.Rotations.
var mpxRotations = obs.Default().Counter(
	"icicle_perf_mpx_rotations_total",
	"counter-window rotations performed by the perf multiplexer")

// Multiplexer time-slices more counter groups than the hardware has
// counters (the classic perf/MPX technique the paper cites as the software
// answer to counter pressure [70][73]): every quantum it harvests the
// active groups, rotates the window, and reprograms the counter file
// through the CSR interface. Final values are scaled by total/active time,
// so events with stationary rates are estimated accurately while the
// hardware only ever tracks NumHPMCounters groups at once.
//
// Attach Tick as the core's cycle hook.
type Multiplexer struct {
	dev     *pmu.PMU
	groups  []Group
	sels    []pmu.Selector
	quantum uint64
	slots   int

	accum     []uint64 // harvested counts per group
	active    []uint64 // cycles each group was live
	cur       int      // rotation position (first active group)
	last      uint64   // cycle of the last rotation
	cycles    uint64   // total observed cycles
	rotations uint64   // window rotations performed
}

// NewMultiplexer validates the plan (which may exceed the counter file)
// and programs the first window. quantum is the rotation period in cycles.
func NewMultiplexer(dev *pmu.PMU, plan Plan, quantum uint64) (*Multiplexer, error) {
	if quantum == 0 {
		return nil, fmt.Errorf("perf: zero multiplexing quantum")
	}
	if len(plan.Groups) == 0 {
		return nil, fmt.Errorf("perf: empty plan")
	}
	// Validate group contents only (the size limit is what multiplexing
	// lifts).
	for _, g := range plan.Groups {
		if err := (Plan{Groups: []Group{g}}).Validate(dev.Space); err != nil {
			return nil, err
		}
	}
	sels, err := selectorsUnchecked(plan, dev.Space)
	if err != nil {
		return nil, err
	}
	m := &Multiplexer{
		dev:     dev,
		groups:  plan.Groups,
		sels:    sels,
		quantum: quantum,
		slots:   min(len(plan.Groups), pmu.NumHPMCounters),
		accum:   make([]uint64, len(plan.Groups)),
		active:  make([]uint64, len(plan.Groups)),
	}
	m.program()
	dev.WriteCSR(pmu.CSRMCountInhibit, 0)
	return m, nil
}

func selectorsUnchecked(p Plan, space *pmu.Space) ([]pmu.Selector, error) {
	sels := make([]pmu.Selector, len(p.Groups))
	for i, g := range p.Groups {
		for _, name := range g {
			idx, err := space.Index(name)
			if err != nil {
				return nil, err
			}
			e := space.Events[idx]
			sels[i].Set = e.Set
			sels[i].Mask |= 1 << uint(e.Bit)
		}
	}
	return sels, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// program writes the current window's selectors into the counter file.
func (m *Multiplexer) program() {
	for s := 0; s < m.slots; s++ {
		g := (m.cur + s) % len(m.groups)
		m.dev.WriteCSR(pmu.CSRMHPMEvent3+uint16(s), m.sels[g].Encode())
		m.dev.WriteCSR(pmu.CSRMHPMCounter3+uint16(s), 0)
	}
}

// harvest accumulates the active window's counts.
func (m *Multiplexer) harvest(elapsed uint64) {
	for s := 0; s < m.slots; s++ {
		g := (m.cur + s) % len(m.groups)
		m.accum[g] += m.dev.ReadCSR(pmu.CSRMHPMCounter3 + uint16(s))
		m.active[g] += elapsed
	}
}

// Tick is the per-cycle hook: it rotates the window on quantum
// boundaries. The sample argument is unused (it exists to match the
// pmu.CycleHook signature).
func (m *Multiplexer) Tick(cycle uint64, _ pmu.Sample) {
	m.cycles = cycle + 1
	if m.slots == len(m.groups) {
		return // everything fits: no rotation needed
	}
	if cycle-m.last+1 < m.quantum {
		return
	}
	m.harvest(cycle - m.last + 1)
	m.cur = (m.cur + m.slots) % len(m.groups)
	m.program()
	m.last = cycle + 1
	m.rotations++
	mpxRotations.Inc()
}

// Rotations reports how many window rotations this multiplexer performed.
func (m *Multiplexer) Rotations() uint64 { return m.rotations }

// Finish harvests the final window; call once after simulation ends.
func (m *Multiplexer) Finish() {
	if m.slots == len(m.groups) {
		m.harvest(m.cycles)
		return
	}
	if m.cycles > m.last {
		m.harvest(m.cycles - m.last)
	}
	m.last = m.cycles
}

// Estimates returns the scaled per-group counts, keyed like Plan.Read.
// Groups that were never active estimate zero.
func (m *Multiplexer) Estimates() map[string]uint64 {
	out := make(map[string]uint64, len(m.groups))
	for i, g := range m.groups {
		v := m.accum[i]
		if m.active[i] > 0 && m.active[i] < m.cycles {
			v = uint64(float64(v) * float64(m.cycles) / float64(m.active[i]))
		}
		out[groupKey(g)] = v
	}
	return out
}

// ActiveFraction reports the share of cycles group i was live (1.0 when
// the plan fits without multiplexing).
func (m *Multiplexer) ActiveFraction(i int) float64 {
	if m.cycles == 0 || i < 0 || i >= len(m.groups) {
		return 0
	}
	return float64(m.active[i]) / float64(m.cycles)
}
