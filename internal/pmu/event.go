// Package pmu implements the performance monitoring unit of the paper:
// the event/event-set abstraction (§II-A), the three counter
// microarchitectures — Scalar, AddWires, and DistributedCounters (§IV-B) —
// and the RISC-V CSR register file through which software programs and
// reads the counters (mhpmcounter3..31 / mhpmevent3..31 / mcountinhibit).
package pmu

import "fmt"

// MaxSources bounds the number of lanes (sources) a single event may have;
// lane assertions are carried in a 64-bit mask.
const MaxSources = 64

// Event describes one hardware performance event. Events with Sources > 1
// are per-lane events (e.g. Fetch-bubbles has one source per decode lane);
// each source is a separate wire into the PMU.
type Event struct {
	Name    string
	Set     uint8 // event set (§II-A): only same-set events may share a counter
	Bit     uint8 // position within the set's 56-bit selection mask
	Sources int   // number of lanes asserting this event (≥ 1)
}

// ID is the (set, bit) coordinate of an event.
type ID struct {
	Set uint8
	Bit uint8
}

// Space is a core's complete event list. The per-cycle Sample is indexed
// parallel to Events.
type Space struct {
	Events []Event
	byName map[string]int
	byID   map[ID]int
}

// NewSpace validates and indexes an event list.
func NewSpace(events []Event) (*Space, error) {
	s := &Space{
		Events: events,
		byName: make(map[string]int, len(events)),
		byID:   make(map[ID]int, len(events)),
	}
	for i, e := range events {
		if e.Sources < 1 || e.Sources > MaxSources {
			return nil, fmt.Errorf("pmu: event %q: bad source count %d", e.Name, e.Sources)
		}
		if e.Bit >= 56 {
			return nil, fmt.Errorf("pmu: event %q: bit %d exceeds 56-bit mask", e.Name, e.Bit)
		}
		if _, dup := s.byName[e.Name]; dup {
			return nil, fmt.Errorf("pmu: duplicate event name %q", e.Name)
		}
		id := ID{e.Set, e.Bit}
		if _, dup := s.byID[id]; dup {
			return nil, fmt.Errorf("pmu: duplicate event id set=%d bit=%d", e.Set, e.Bit)
		}
		s.byName[e.Name] = i
		s.byID[id] = i
	}
	return s, nil
}

// MustSpace is NewSpace that panics on error (event lists are compiled-in).
func MustSpace(events []Event) *Space {
	s, err := NewSpace(events)
	if err != nil {
		panic(err)
	}
	return s
}

// Index returns the sample index of the named event.
func (s *Space) Index(name string) (int, error) {
	i, ok := s.byName[name]
	if !ok {
		return 0, fmt.Errorf("pmu: unknown event %q", name)
	}
	return i, nil
}

// MustIndex is Index that panics on unknown names.
func (s *Space) MustIndex(name string) int {
	i, err := s.Index(name)
	if err != nil {
		panic(err)
	}
	return i
}

// Names returns the event names, parallel to Events.
func (s *Space) Names() []string {
	out := make([]string, len(s.Events))
	for i, e := range s.Events {
		out[i] = e.Name
	}
	return out
}

// SourceCounts returns the per-event lane counts, parallel to Events.
// It is the shape stats.Tally is built from.
func (s *Space) SourceCounts() []int {
	out := make([]int, len(s.Events))
	for i, e := range s.Events {
		out[i] = e.Sources
	}
	return out
}

// Lookup resolves an event by (set, bit).
func (s *Space) Lookup(id ID) (Event, bool) {
	i, ok := s.byID[id]
	if !ok {
		return Event{}, false
	}
	return s.Events[i], true
}

// Sample holds one cycle's event assertions: for each event (parallel to
// Space.Events) a bitmask of which sources were high this cycle.
type Sample []uint64

// CycleHook observes every simulated cycle of a detailed core (the trace
// bridge, the counter multiplexer). The sample must not be retained
// across calls.
type CycleHook func(cycle uint64, sample Sample)

// NewSample allocates a zeroed sample for the space.
func (s *Space) NewSample() Sample { return make(Sample, len(s.Events)) }

// Reset clears all assertions (call at the top of each simulated cycle).
func (m Sample) Reset() {
	for i := range m {
		m[i] = 0
	}
}

// Assert raises source lane of event ev.
func (m Sample) Assert(ev, lane int) { m[ev] |= 1 << uint(lane) }

// AssertN raises lanes [0, n) of event ev.
func (m Sample) AssertN(ev, n int) {
	if n <= 0 {
		return
	}
	if n >= 64 {
		m[ev] = ^uint64(0)
		return
	}
	m[ev] |= 1<<uint(n) - 1
}

// Set writes the full lane mask for event ev.
func (m Sample) Set(ev int, mask uint64) { m[ev] = mask }

// Lanes returns the lane mask of event ev.
func (m Sample) Lanes(ev int) uint64 { return m[ev] }

// Any reports whether any source of event ev is high.
func (m Sample) Any(ev int) bool { return m[ev] != 0 }
