package sample

import (
	"fmt"

	"icicle/internal/branch"
	"icicle/internal/core"
	"icicle/internal/isa"
	"icicle/internal/mem"
	"icicle/internal/obs"
)

// Core is the detailed-core surface the controller drives. Both
// rocket.Core and boom.Core satisfy it (see their window.go files); the
// methods are additive — the cycle loops themselves are untouched.
type Core interface {
	// Attach restores the architectural checkpoint and clears the
	// pipeline, keeping caches/predictors/tallies/cycle counter warm.
	Attach(ck isa.Checkpoint)
	// RunWindowBounded runs the detailed loop for up to maxCycles more
	// cycles, stopping exactly at maxInsts retired instructions (0 =
	// unbounded), so a plan-scheduled window never stores past its
	// memory-delta boundary.
	RunWindowBounded(maxCycles, maxInsts uint64) error
	// BeginWindow rebases the core's timing state — cycle clock, PMU,
	// caches, predictors — to power-on while leaving architectural state,
	// memory, and cumulative tallies untouched. The plan engine calls it
	// before each window so the result is schedule-independent.
	BeginWindow()
	// Done reports the workload halted and the pipeline drained.
	Done() bool
	Cycles() uint64
	Insts() uint64
	// CopyTally snapshots the dense event totals into dst.
	CopyTally(dst []uint64) []uint64
}

// Target bundles a detailed core with the shared functional/warm-up
// surfaces the controller needs. CPU must be the core's own embedded CPU
// (so fast-forward mutates the memory image the detailed windows read),
// and Hier/Pred the core's own hierarchy and predictor (so warm-up
// accesses train the same state the windows consult). Mem is the core's
// backing sparse memory; the serial engine ignores it, but the plan
// engine (Exec/RunPlan) requires it to apply frame deltas.
type Target struct {
	Core Core
	CPU  *isa.CPU
	Hier *mem.Hierarchy
	Pred branch.Predictor
	Mem  *mem.Sparse
}

// CountsFn maps a (cycles, insts, dense tally) triple onto the TMA
// counter set. The perf package provides closures over the rocket/boom
// event spaces.
type CountsFn func(cycles, insts uint64, tally []uint64) core.Counts

// Options carries the evaluation glue and observability hooks.
type Options struct {
	// Counts is required: it converts window tallies to TMA counts.
	Counts CountsFn
	// TMA is the evaluation config (commit/issue widths etc.).
	TMA core.Config
	// EventNames labels the dense tally for Report.TallyMap.
	EventNames []string

	// Telemetry publishes per-phase counters (nil = disabled).
	Telemetry *Telemetry
	// Tracer emits fast-forward/warm-up/window spans (nil = disabled;
	// obs.Tracer methods are nil-safe).
	Tracer *obs.Tracer
	Tid    int
}

// Run executes the whole program under the sampling policy and returns
// the extrapolated report. The schedule is deterministic for a fixed
// (core config, program, policy) triple: systematic sampling, no
// randomness anywhere.
func Run(t Target, p Policy, o Options) (*Report, error) {
	if !p.Enabled() {
		return nil, fmt.Errorf("sample: policy is disabled (window == 0)")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if t.Core == nil || t.CPU == nil || t.Hier == nil || t.Pred == nil {
		return nil, fmt.Errorf("sample: incomplete target (need Core, CPU, Hier, Pred)")
	}
	if o.Counts == nil {
		return nil, fmt.Errorf("sample: Options.Counts is required")
	}

	b := newReportBuilder(p, &o)
	sb0 := t.CPU.SuperblockStats()
	defer func() { o.Telemetry.AddSuperblock(t.CPU.SuperblockStats().Sub(sb0)) }()
	// Scratch tally buffers: one backing array pre-sized from the event
	// space, split into three views, so the per-window snapshot and diff
	// never reallocate. (CopyTally/diffInto still grow them if the
	// core's tally is wider than EventNames.)
	ew := len(o.EventNames)
	scratch := make([]uint64, 3*ew)
	before := scratch[0:0:ew]
	after := scratch[ew : ew : 2*ew]
	windowDelta := scratch[2*ew : 2*ew : 3*ew]
	var ffInsts, warmReplays uint64

	// The fast-forward span splits into a plain stretch and a warmed
	// tail: the last `warm` instructions before each window also train
	// the caches, TLBs, and predictors as they execute. This is
	// equivalent to replaying the last K retirements (the access
	// sequence, and hence the LRU and predictor state, is identical) but
	// needs no retirement ring and no second pass.
	warmTail := uint64(p.Warmup)
	if warmTail > p.Period {
		warmTail = p.Period
	}

	for {
		// Detailed window on the unmodified cycle loop.
		t.Core.Attach(t.CPU.Checkpoint())
		startCycle, startInst := t.Core.Cycles(), t.Core.Insts()
		startRet := t.CPU.InstRet
		before = t.Core.CopyTally(before)
		span := o.Tracer.Begin("window", "sample", o.Tid)
		err := t.Core.RunWindowBounded(p.Window, 0)
		wCycles := t.Core.Cycles() - startCycle
		wInsts := t.Core.Insts() - startInst
		span.End(obs.Arg{Key: "cycles", Val: wCycles}, obs.Arg{Key: "insts", Val: wInsts})
		if err != nil {
			return nil, err
		}
		after = t.Core.CopyTally(after)
		windowDelta = diffInto(windowDelta, after, before)
		b.addWindow(startRet, startCycle, wCycles, wInsts, windowDelta)
		if o.Telemetry != nil {
			o.Telemetry.Windows.Inc()
			o.Telemetry.DetailedCycles.Add(wCycles)
			o.Telemetry.DetailedInsts.Add(wInsts)
		}

		if t.CPU.Halted || t.Core.Done() {
			break
		}

		// Functional fast-forward on the shared CPU: architectural
		// effects land directly in the image the next window will read.
		span = o.Tracer.Begin("fast-forward", "sample", o.Tid)
		ffed, err := fastForward(t.CPU, p.Period-warmTail)
		if err == nil && warmTail > 0 && !t.CPU.Halted {
			sw := o.Tracer.Begin("warm-up", "sample", o.Tid)
			var warmed uint64
			warmed, err = fastForwardWarming(t, warmTail)
			sw.End(obs.Arg{Key: "warmed", Val: warmed})
			ffed += warmed
			warmReplays += warmed
			if o.Telemetry != nil {
				o.Telemetry.WarmupReplays.Add(warmed)
			}
			// Warming allocates MSHRs with ready times in the window's
			// future; clear them so the window does not start D$-blocked
			// on stale refills.
			t.Hier.MSHRs.Reset()
		}
		span.End(obs.Arg{Key: "insts", Val: ffed})
		ffInsts += ffed
		if o.Telemetry != nil {
			o.Telemetry.FFInsts.Add(ffed)
		}
		if err != nil {
			return nil, err
		}
		if t.CPU.Halted {
			break
		}
	}

	return b.finalize(t.CPU.InstRet, ffInsts, warmReplays, t.CPU.ExitCode, t.CPU.Halted)
}

// reportBuilder accumulates per-window results into a Report. Both
// engines feed it in schedule order — the serial controller as windows
// complete, RunPlan's reduce step after the join — so every float
// operation happens in the same order regardless of worker count, which
// is what makes serial and parallel reports bit-identical.
type reportBuilder struct {
	rep    *Report
	o      *Options
	cpis   []float64
	shares [4][]float64 // Retiring, BadSpec, Frontend, Backend
}

func newReportBuilder(p Policy, o *Options) *reportBuilder {
	return &reportBuilder{rep: &Report{Policy: p, EventNames: o.EventNames}, o: o}
}

// addWindow folds in one window's stats and dense tally delta.
func (b *reportBuilder) addWindow(startInst, startCycle, wCycles, wInsts uint64, delta []uint64) {
	rep := b.rep
	rep.Tally = addInto(rep.Tally, delta)
	rep.Windows = append(rep.Windows, WindowStat{
		StartInst:  startInst,
		StartCycle: startCycle,
		Cycles:     wCycles,
		Insts:      wInsts,
	})
	rep.DetailedCycles += wCycles
	rep.DetailedInsts += wInsts
	if wInsts > 0 {
		b.cpis = append(b.cpis, float64(wCycles)/float64(wInsts))
	}
	if wCycles > 0 {
		if bd, err := core.Evaluate(b.o.TMA, b.o.Counts(wCycles, wInsts, delta)); err == nil {
			b.shares[0] = append(b.shares[0], bd.Retiring)
			b.shares[1] = append(b.shares[1], bd.BadSpec)
			b.shares[2] = append(b.shares[2], bd.Frontend)
			b.shares[3] = append(b.shares[3], bd.Backend)
		}
	}
}

// finalize runs the extrapolation and returns the completed report.
func (b *reportBuilder) finalize(totalInsts, ffInsts, warmReplays, exit uint64, halted bool) (*Report, error) {
	rep, o := b.rep, b.o
	rep.TotalInsts = totalInsts
	rep.FFInsts = ffInsts
	rep.WarmupReplays = warmReplays
	rep.Exit = exit
	rep.Halted = halted
	rep.Exact = rep.FFInsts == 0
	if rep.TotalInsts > 0 {
		rep.Coverage = float64(rep.DetailedInsts) / float64(rep.TotalInsts)
	}

	// Extrapolation: the ratio estimator CPI = ΣC_w / ΣI_w applied to the
	// exact architectural instruction count, with the CI from the
	// per-window CPI spread.
	if rep.DetailedInsts > 0 {
		rep.CPI = float64(rep.DetailedCycles) / float64(rep.DetailedInsts)
	}
	if rep.Exact {
		rep.EstCycles = rep.DetailedCycles
		rep.CPICI = Interval{Lo: rep.CPI, Hi: rep.CPI}
	} else {
		rep.EstCycles = uint64(rep.CPI*float64(rep.TotalInsts) + 0.5)
		_, half := meanCI(b.cpis)
		rep.CPICI = Interval{Lo: rep.CPI - half, Hi: rep.CPI + half}
	}

	// Pooled TMA breakdown over all window counts; shares are ratios, so
	// no scaling is needed.
	if rep.DetailedCycles > 0 {
		bd, err := core.Evaluate(o.TMA, o.Counts(rep.DetailedCycles, rep.DetailedInsts, rep.Tally))
		if err != nil {
			return nil, fmt.Errorf("sample: evaluating pooled breakdown: %w", err)
		}
		rep.Breakdown = bd
		pooled := [4]float64{bd.Retiring, bd.BadSpec, bd.Frontend, bd.Backend}
		names := [4]string{"Retiring", "BadSpec", "Frontend", "Backend"}
		rep.CategoryCI = make(map[string]Interval, 4)
		for i, name := range names {
			_, half := meanCI(b.shares[i])
			rep.CategoryCI[name] = Interval{
				Lo: clamp01(pooled[i] - half),
				Hi: clamp01(pooled[i] + half),
			}
		}
	}
	return rep, nil
}

// fastForward advances the functional CPU by up to n instructions on
// the superblock threaded-code path (or a plain Step loop when the
// engine is disabled — results are bit-identical either way).
func fastForward(cpu *isa.CPU, n uint64) (uint64, error) {
	return cpu.RunFor(n)
}

// fastForwardWarming steps the functional CPU for up to n instructions,
// training the I-side (on fetch-block change), the branch predictors,
// and the D-side caches/TLBs with each retirement — functional warming
// with no pipeline timing. Every access uses the core's current cycle as
// "now"; order alone determines the resulting LRU/predictor state.
func fastForwardWarming(t Target, n uint64) (uint64, error) {
	cpu, hier, pred := t.CPU, t.Hier, t.Pred
	now := t.Core.Cycles()
	var lastBlk uint64
	haveBlk := false
	var warmed uint64
	for warmed < n && !cpu.Halted {
		r, err := cpu.Step()
		if err != nil {
			return warmed, err
		}
		warmed++
		if blk := hier.L1I.BlockAddr(r.PC); !haveBlk || blk != lastBlk {
			hier.AccessI(r.PC, now)
			lastBlk, haveBlk = blk, true
		}
		switch {
		case r.Inst.Op.IsBranch():
			pred.UpdateBranch(r.PC, r.Taken)
			if r.Taken {
				pred.UpdateTarget(r.PC, r.NextPC)
			}
		case r.NextPC != r.PC+isa.InstBytes:
			pred.UpdateTarget(r.PC, r.NextPC)
		}
		if r.IsMem() {
			cls := r.Inst.Op.Class()
			hier.AccessD(r.MemAddr, cls == isa.ClassStore || cls == isa.ClassAtomic, now)
		}
	}
	return warmed, nil
}

// diffInto writes after-before into dst (grown as needed).
func diffInto(dst, after, before []uint64) []uint64 {
	if cap(dst) < len(after) {
		dst = make([]uint64, len(after))
	}
	dst = dst[:len(after)]
	for i := range after {
		dst[i] = after[i] - before[i]
	}
	return dst
}

// addInto accumulates src into dst (grown as needed).
func addInto(dst, src []uint64) []uint64 {
	for len(dst) < len(src) {
		dst = append(dst, 0)
	}
	for i := range src {
		dst[i] += src[i]
	}
	return dst
}
