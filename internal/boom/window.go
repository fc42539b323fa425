package boom

import (
	"fmt"

	"icicle/internal/branch"
	"icicle/internal/isa"
	"icicle/internal/sample"
)

// Sampled-simulation support: the state-handoff contract internal/sample
// drives (see DESIGN.md "Sampled simulation"). The cycle loop itself is
// untouched — a detailed window runs the exact same step() as a full run,
// so the 0 allocs/op invariant holds inside windows too.

// ResetPipeline clears the pipeline and timing bookkeeping only: the
// fetch buffer, putback list, wrong-path state, ROB, issue queues, rename
// table, in-flight set, and the uop arena. Everything architectural or
// cumulative survives — CPU state, memory, caches, TLBs, predictors, RAS,
// PMU, event tallies, the seq counter, and the cycle counter — so a
// sampling controller can abandon a window's in-flight uops (their
// architectural effects already landed in the shared functional CPU) and
// later attach a fresh window against the still-warm microarchitectural
// state.
func (c *Core) ResetPipeline() {
	c.putback = c.putback[:0]
	c.fb = c.fb[:0]
	c.fbHead = 0
	c.wrongPath = false
	c.wrongPC = 0
	c.recovering = 0
	c.recoveringFlag = false
	c.fetchStall = 0
	c.refillUntil = 0
	c.lastFetchBlock = 0
	c.haveFetchBlock = false

	c.uops.reset()
	c.robHead = 0
	c.robCount = 0
	c.robLoads = 0
	c.robStores = 0
	c.resetQueues()
	for i := range c.renameLast {
		c.renameLast[i] = nilIdx
	}
	c.inflight = c.inflight[:0]
	c.longBusy = 0
	c.issuedThisCycle = 0

	// Defensive: a detached core must not skip until a run loop installs
	// its window/budget bound again.
	c.skipLimit = 0
	c.quiet = false

	c.done = false
}

// Attach hands the core an architectural state mid-program: the CPU is
// restored from ck and the pipeline is cleared, while caches, predictors,
// tallies, and the cycle counter carry over. The core's memory must
// already hold the image matching ck — the sampling controller guarantees
// this by fast-forwarding the core's own CPU, so the memory is shared and
// always current.
func (c *Core) Attach(ck isa.Checkpoint) {
	c.CPU.Restore(ck)
	c.ResetPipeline()
}

// RunWindowBounded runs the detailed cycle loop for up to maxCycles more
// cycles, stopping early if the workload halts and the pipeline drains,
// or once maxInsts instructions have retired (0 = no instruction bound).
// The instruction bound is exact, even mid-commit-group, so a
// plan-scheduled window can never store past the memory-delta boundary
// the two-phase sampling plan assigned it. The config's MaxCycles budget
// still bounds the cumulative detailed cycle count as a runaway guard.
func (c *Core) RunWindowBounded(maxCycles, maxInsts uint64) error {
	budget := c.Cfg.MaxCycles
	if budget == 0 {
		budget = 2_000_000_000
	}
	end := c.cycle + maxCycles
	// Cap skips at the window end and the cycle budget so the loop
	// re-evaluates both conditions exactly where per-cycle stepping would.
	// No skip cap is needed for the instruction bound: a skipped stretch
	// retires nothing, and the loop re-checks retiredTotal every step.
	c.skipLimit = end
	if budget < end {
		c.skipLimit = budget
	}
	instEnd := ^uint64(0)
	if maxInsts != 0 {
		instEnd = c.retiredTotal + maxInsts
		c.retireLimit = instEnd
		defer func() { c.retireLimit = 0 }()
	}
	for !c.done && c.cycle < end && c.retiredTotal < instEnd {
		if c.cycle >= budget {
			c.flushTelemetry()
			return fmt.Errorf("boom: cycle budget %d exhausted in sampled window (pc 0x%x)", budget, c.CPU.PC)
		}
		if err := c.step(); err != nil {
			c.flushTelemetry()
			return err
		}
	}
	c.flushTelemetry()
	return nil
}

// BeginWindow rebases the core for a schedule-independent detailed
// window: the cycle clock, PMU, uop sequence numbers, cache hierarchy,
// and predictors (including the RAS) all return to their power-on state
// while the architectural state — CPU registers, memory, cumulative
// event tallies, and the retired-instruction total — is untouched. After
// BeginWindow the core's timing state is a pure function of what runs
// next, which is what lets the two-phase sampled engine execute windows
// on any worker in any order and still merge bit-identical results.
func (c *Core) BeginWindow() {
	c.flushTelemetry()
	c.cycle = 0
	c.telCycles = 0
	c.seq = 0
	c.PMU.Reset()
	c.Hier.Reset()
	branch.Reset(c.Pred)
	if c.RAS != nil {
		c.RAS.Reset()
	}
}

// Target bundles the core with the functional CPU, hierarchy,
// predictor, and memory it shares with the sampling engines.
func (c *Core) Target() sample.Target {
	return sample.Target{Core: c, CPU: c.CPU, Hier: c.Hier, Pred: c.Pred, Mem: c.memory}
}

// Estimate assembles a Result from a sampled run's report: extrapolated
// cycle and event totals, exact instruction count and exit code.
// withCaches adds the hierarchy's cumulative cache statistics, which are
// meaningful on the serial engine (its caches stay warm across the run);
// the plan engine resets the hierarchy per window, so its results leave
// them zero.
func (c *Core) Estimate(rep *sample.Report, withCaches bool) Result {
	res := Result{
		Cycles:    rep.EstCycles,
		Insts:     rep.TotalInsts,
		Tally:     rep.ScaledTallyMap(),
		LaneTally: map[string][]uint64{},
		Exit:      rep.Exit,
	}
	if withCaches {
		res.L1I, res.L1D, res.L2 = c.Hier.L1I.Stats(), c.Hier.L1D.Stats(), c.Hier.L2.Stats()
	}
	return res
}

// Done reports whether the workload has halted and the pipeline drained.
func (c *Core) Done() bool { return c.done }

// CopyTally copies the dense per-event totals into dst (grown if needed)
// and returns it. The slice is indexed like Space.Events; the sampling
// controller diffs snapshots taken around each window.
func (c *Core) CopyTally(dst []uint64) []uint64 {
	n := c.tally.Len()
	if cap(dst) < n {
		dst = make([]uint64, n)
	}
	dst = dst[:n]
	copy(dst, c.tally.Totals)
	return dst
}
