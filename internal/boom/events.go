// Package boom implements a cycle-level timing model of the BOOM core: a
// parameterizable superscalar out-of-order RV64 pipeline (the five Table IV
// sizes) with a fetch buffer, renaming dispatch into a reorder buffer,
// three asymmetric issue queues, non-blocking loads through MSHRs,
// speculative wrong-path fetch after branch mispredictions, and the full
// Table I event list including the seven events Icicle adds for TMA.
package boom

import (
	"icicle/internal/core"
	"icicle/internal/pmu"
)

// Event set IDs (§II-A).
const (
	SetBasic     = 0
	SetMicroarch = 1
	SetMemory    = 2
	SetTMA       = 3
)

// Event names.
const (
	EvCycles    = "cycles"
	EvInstRet   = "instructions-retired"
	EvException = "exception"

	EvBrMispredict   = "br-mispredict"
	EvCFTargetMiss   = "cf-target-mispredict"
	EvFlush          = "flush"
	EvBranchResolved = "branch-resolved"

	EvICacheMiss = "icache-miss"
	EvDCacheMiss = "dcache-miss"
	EvDCacheRel  = "dcache-release"
	EvITLBMiss   = "itlb-miss"
	EvDTLBMiss   = "dtlb-miss"
	EvL2TLBMiss  = "l2tlb-miss"

	// TMA events added by Icicle (§IV-A: 7 new BOOM events).
	EvUopsIssued    = "uops-issued"    // W_I sources (one per issue port)
	EvFetchBubbles  = "fetch-bubbles"  // W_C sources (one per decode lane)
	EvRecovering    = "recovering"     // 1 source
	EvUopsRetired   = "uops-retired"   // W_C sources (ROB commit lanes)
	EvFenceRetired  = "fence-retired"  // 1 source
	EvICacheBlocked = "icache-blocked" // 1 source
	EvDCacheBlocked = "dcache-blocked" // W_C sources
)

// NewSpace builds the event space for a core with the given decode/commit
// width (W_C) and total issue width (W_I). Unlike Rocket, BOOM's event
// space depends on the configuration because the TMA events are per-lane.
func NewSpace(commitWidth, issueWidth int) *pmu.Space {
	return pmu.MustSpace([]pmu.Event{
		{Name: EvCycles, Set: SetBasic, Bit: 0, Sources: 1},
		{Name: EvInstRet, Set: SetBasic, Bit: 1, Sources: commitWidth},
		{Name: EvException, Set: SetBasic, Bit: 2, Sources: 1},

		{Name: EvBrMispredict, Set: SetMicroarch, Bit: 0, Sources: 1},
		{Name: EvCFTargetMiss, Set: SetMicroarch, Bit: 1, Sources: 1},
		{Name: EvFlush, Set: SetMicroarch, Bit: 2, Sources: 1},
		{Name: EvBranchResolved, Set: SetMicroarch, Bit: 3, Sources: 1},

		{Name: EvICacheMiss, Set: SetMemory, Bit: 0, Sources: 1},
		{Name: EvDCacheMiss, Set: SetMemory, Bit: 1, Sources: 1},
		{Name: EvDCacheRel, Set: SetMemory, Bit: 2, Sources: 1},
		{Name: EvITLBMiss, Set: SetMemory, Bit: 3, Sources: 1},
		{Name: EvDTLBMiss, Set: SetMemory, Bit: 4, Sources: 1},
		{Name: EvL2TLBMiss, Set: SetMemory, Bit: 5, Sources: 1},

		{Name: EvUopsIssued, Set: SetTMA, Bit: 0, Sources: issueWidth},
		{Name: EvFetchBubbles, Set: SetTMA, Bit: 1, Sources: commitWidth},
		{Name: EvRecovering, Set: SetTMA, Bit: 2, Sources: 1},
		{Name: EvUopsRetired, Set: SetTMA, Bit: 3, Sources: commitWidth},
		{Name: EvFenceRetired, Set: SetTMA, Bit: 4, Sources: 1},
		{Name: EvICacheBlocked, Set: SetTMA, Bit: 5, Sources: 1},
		{Name: EvDCacheBlocked, Set: SetTMA, Bit: 6, Sources: commitWidth},
	})
}

// eventIDs interns the sample index of every event the pipeline asserts.
// Resolved once at core construction so the per-cycle hot path never does
// a map lookup (the event *list* is width-independent, but the space is
// built per-core because lane counts vary with the configuration).
type eventIDs struct {
	cycles, instRet, exception                        int
	brMispredict, cfTargetMiss, flush, branchResolved int
	icacheMiss, dcacheMiss, dcacheRel                 int
	itlbMiss, dtlbMiss, l2tlbMiss                     int
	uopsIssued, fetchBubbles, recovering, uopsRetired int
	fenceRetired, icacheBlocked, dcacheBlocked        int
}

func resolveEventIDs(s *pmu.Space) eventIDs {
	return eventIDs{
		cycles:         s.MustIndex(EvCycles),
		instRet:        s.MustIndex(EvInstRet),
		exception:      s.MustIndex(EvException),
		brMispredict:   s.MustIndex(EvBrMispredict),
		cfTargetMiss:   s.MustIndex(EvCFTargetMiss),
		flush:          s.MustIndex(EvFlush),
		branchResolved: s.MustIndex(EvBranchResolved),
		icacheMiss:     s.MustIndex(EvICacheMiss),
		dcacheMiss:     s.MustIndex(EvDCacheMiss),
		dcacheRel:      s.MustIndex(EvDCacheRel),
		itlbMiss:       s.MustIndex(EvITLBMiss),
		dtlbMiss:       s.MustIndex(EvDTLBMiss),
		l2tlbMiss:      s.MustIndex(EvL2TLBMiss),
		uopsIssued:     s.MustIndex(EvUopsIssued),
		fetchBubbles:   s.MustIndex(EvFetchBubbles),
		recovering:     s.MustIndex(EvRecovering),
		uopsRetired:    s.MustIndex(EvUopsRetired),
		fenceRetired:   s.MustIndex(EvFenceRetired),
		icacheBlocked:  s.MustIndex(EvICacheBlocked),
		dcacheBlocked:  s.MustIndex(EvDCacheBlocked),
	}
}

// EventSpace returns the core's event space. BOOM's depends on the
// configuration's lane counts; dense tallies are indexed like its Events.
func (c *Core) EventSpace() *pmu.Space { return c.Space }

// TMAConfig returns the TMA evaluation config for the core's decode
// (commit) and issue widths.
func (c *Core) TMAConfig() core.Config {
	return core.DefaultConfig(c.Cfg.DecodeWidth, c.Cfg.IssueWidth)
}

// Counts maps a dense tally (indexed like Space.Events) onto the TMA
// model inputs. The Flush event counts every pipeline flush; branch
// mispredicts are recorded separately, so machine clears are the
// difference.
func (c *Core) Counts(cycles, insts uint64, tally []uint64) core.Counts {
	id := &c.ids
	flush, bm := tally[id.flush], tally[id.brMispredict]
	var clears uint64
	if flush > bm {
		clears = flush - bm
	}
	return core.Counts{
		Cycles:        cycles,
		InstRet:       insts,
		UopsIssued:    tally[id.uopsIssued],
		UopsRetired:   tally[id.uopsRetired],
		FetchBubbles:  tally[id.fetchBubbles],
		Recovering:    tally[id.recovering],
		Flushes:       clears,
		BrMispred:     bm,
		FenceRetired:  tally[id.fenceRetired],
		ICacheBlocked: tally[id.icacheBlocked],
		DCacheBlocked: tally[id.dcacheBlocked],
		ITLBMisses:    tally[id.itlbMiss],
		DTLBMisses:    tally[id.dtlbMiss],
		L2TLBMisses:   tally[id.l2tlbMiss],
	}
}
