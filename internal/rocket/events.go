// Package rocket implements a cycle-level timing model of the Rocket core:
// a 5-stage in-order RV64 pipeline with 2-wide fetch, single issue, a
// 512-entry BHT + 28-entry BTB, blocking loads, and the full Table I event
// list including the three events Icicle adds for TMA (Instr-issued,
// Fetch-bubbles, Recovering).
package rocket

import (
	"icicle/internal/core"
	"icicle/internal/pmu"
)

// Event set IDs, following the Chipyard grouping (§II-A, Table I).
const (
	SetBasic     = 0
	SetMicroarch = 1
	SetMemory    = 2
	SetTMA       = 3 // events added by this work
)

// Event names. The names are the stable API between the core, the perf
// harness, and the TMA model.
const (
	EvCycles  = "cycles"
	EvInstRet = "instructions-retired"
	EvLoad    = "load"
	EvStore   = "store"
	EvSystem  = "system"
	EvArith   = "arith"
	EvBranch  = "branch"
	EvFence   = "fence"
	EvJump    = "jump"
	EvAtomic  = "atomic"

	EvLoadUseInterlock = "load-use-interlock"
	EvLongLatency      = "long-latency-interlock"
	EvCSRInterlock     = "csr-interlock"
	EvICacheBlocked    = "icache-blocked"
	EvDCacheBlocked    = "dcache-blocked"
	EvBrMispredict     = "cobr-mispredict"
	EvFlush            = "flush"
	EvReplay           = "replay"
	EvCFTargetMiss     = "cf-target-mispredict"
	EvMulDivInterlock  = "muldiv-interlock"

	EvICacheMiss = "icache-miss"
	EvDCacheMiss = "dcache-miss"
	EvDCacheRel  = "dcache-release"
	EvITLBMiss   = "itlb-miss"
	EvDTLBMiss   = "dtlb-miss"
	EvL2TLBMiss  = "l2tlb-miss"

	// TMA events added by Icicle (§IV-A, Table I: 3 new Rocket events).
	EvInstIssued   = "instructions-issued"
	EvFetchBubbles = "fetch-bubbles"
	EvRecovering   = "recovering"
)

// Events is Rocket's event space. Rocket is single-issue, so every event
// has one source.
var Events = pmu.MustSpace([]pmu.Event{
	{Name: EvCycles, Set: SetBasic, Bit: 0, Sources: 1},
	{Name: EvInstRet, Set: SetBasic, Bit: 1, Sources: 1},
	{Name: EvLoad, Set: SetBasic, Bit: 2, Sources: 1},
	{Name: EvStore, Set: SetBasic, Bit: 3, Sources: 1},
	{Name: EvSystem, Set: SetBasic, Bit: 4, Sources: 1},
	{Name: EvArith, Set: SetBasic, Bit: 5, Sources: 1},
	{Name: EvBranch, Set: SetBasic, Bit: 6, Sources: 1},
	{Name: EvFence, Set: SetBasic, Bit: 7, Sources: 1},
	{Name: EvJump, Set: SetBasic, Bit: 8, Sources: 1},
	{Name: EvAtomic, Set: SetBasic, Bit: 9, Sources: 1},

	{Name: EvLoadUseInterlock, Set: SetMicroarch, Bit: 0, Sources: 1},
	{Name: EvLongLatency, Set: SetMicroarch, Bit: 1, Sources: 1},
	{Name: EvCSRInterlock, Set: SetMicroarch, Bit: 2, Sources: 1},
	{Name: EvICacheBlocked, Set: SetMicroarch, Bit: 3, Sources: 1},
	{Name: EvDCacheBlocked, Set: SetMicroarch, Bit: 4, Sources: 1},
	{Name: EvBrMispredict, Set: SetMicroarch, Bit: 5, Sources: 1},
	{Name: EvFlush, Set: SetMicroarch, Bit: 6, Sources: 1},
	{Name: EvReplay, Set: SetMicroarch, Bit: 7, Sources: 1},
	{Name: EvCFTargetMiss, Set: SetMicroarch, Bit: 8, Sources: 1},
	{Name: EvMulDivInterlock, Set: SetMicroarch, Bit: 9, Sources: 1},

	{Name: EvICacheMiss, Set: SetMemory, Bit: 0, Sources: 1},
	{Name: EvDCacheMiss, Set: SetMemory, Bit: 1, Sources: 1},
	{Name: EvDCacheRel, Set: SetMemory, Bit: 2, Sources: 1},
	{Name: EvITLBMiss, Set: SetMemory, Bit: 3, Sources: 1},
	{Name: EvDTLBMiss, Set: SetMemory, Bit: 4, Sources: 1},
	{Name: EvL2TLBMiss, Set: SetMemory, Bit: 5, Sources: 1},

	{Name: EvInstIssued, Set: SetTMA, Bit: 0, Sources: 1},
	{Name: EvFetchBubbles, Set: SetTMA, Bit: 1, Sources: 1},
	{Name: EvRecovering, Set: SetTMA, Bit: 2, Sources: 1},
})

// Interned sample indices, resolved once at package init so the per-cycle
// hot path asserts events by integer instead of a map lookup per call.
// noEvent marks "no event" in APIs that take an optional index.
const noEvent = -1

var (
	idCycles           = Events.MustIndex(EvCycles)
	idInstRet          = Events.MustIndex(EvInstRet)
	idLoad             = Events.MustIndex(EvLoad)
	idStore            = Events.MustIndex(EvStore)
	idSystem           = Events.MustIndex(EvSystem)
	idArith            = Events.MustIndex(EvArith)
	idBranch           = Events.MustIndex(EvBranch)
	idFence            = Events.MustIndex(EvFence)
	idJump             = Events.MustIndex(EvJump)
	idAtomic           = Events.MustIndex(EvAtomic)
	idLoadUseInterlock = Events.MustIndex(EvLoadUseInterlock)
	idLongLatency      = Events.MustIndex(EvLongLatency)
	idCSRInterlock     = Events.MustIndex(EvCSRInterlock)
	idICacheBlocked    = Events.MustIndex(EvICacheBlocked)
	idDCacheBlocked    = Events.MustIndex(EvDCacheBlocked)
	idBrMispredict     = Events.MustIndex(EvBrMispredict)
	idFlush            = Events.MustIndex(EvFlush)
	idReplay           = Events.MustIndex(EvReplay)
	idCFTargetMiss     = Events.MustIndex(EvCFTargetMiss)
	idMulDivInterlock  = Events.MustIndex(EvMulDivInterlock)
	idICacheMiss       = Events.MustIndex(EvICacheMiss)
	idDCacheMiss       = Events.MustIndex(EvDCacheMiss)
	idDCacheRel        = Events.MustIndex(EvDCacheRel)
	idITLBMiss         = Events.MustIndex(EvITLBMiss)
	idDTLBMiss         = Events.MustIndex(EvDTLBMiss)
	idL2TLBMiss        = Events.MustIndex(EvL2TLBMiss)
	idInstIssued       = Events.MustIndex(EvInstIssued)
	idFetchBubbles     = Events.MustIndex(EvFetchBubbles)
	idRecovering       = Events.MustIndex(EvRecovering)
)

// EventSpace returns the core's event space (Events: Rocket's is the same
// for every configuration). Dense tallies are indexed like its Events.
func (c *Core) EventSpace() *pmu.Space { return Events }

// TMAConfig returns the TMA evaluation config for Rocket's widths: single
// issue and single commit.
func (c *Core) TMAConfig() core.Config { return core.DefaultConfig(1, 1) }

// Counts maps a dense tally (indexed like Events.Events) onto the TMA
// model inputs. Rocket is single-issue, so µops ≡ instructions;
// machine-clear flushes are D$-miss replays.
func (c *Core) Counts(cycles, insts uint64, tally []uint64) core.Counts {
	return core.Counts{
		Cycles:        cycles,
		InstRet:       insts,
		UopsIssued:    tally[idInstIssued],
		UopsRetired:   tally[idInstRet],
		FetchBubbles:  tally[idFetchBubbles],
		Recovering:    tally[idRecovering],
		Flushes:       tally[idReplay],
		BrMispred:     tally[idBrMispredict],
		FenceRetired:  tally[idFence],
		ICacheBlocked: tally[idICacheBlocked],
		DCacheBlocked: tally[idDCacheBlocked],
		ITLBMisses:    tally[idITLBMiss],
		DTLBMisses:    tally[idDTLBMiss],
		L2TLBMisses:   tally[idL2TLBMiss],
	}
}
