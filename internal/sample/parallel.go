package sample

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"icicle/internal/obs"
)

// WindowResult is one executed (or memoized) detailed window: the
// triple the consumers hand back to the merge step. Tally is the dense
// per-event delta for the window; memoized results share the slice, so
// treat it as read-only.
type WindowResult struct {
	Index  int
	Cycles uint64
	Insts  uint64
	Tally  []uint64
}

// WindowMemo caches window results across runs. A memo is scoped to one
// core configuration and program; within it, keys identify the window's
// remaining inputs (start instruction, warm span, cycle and instruction
// bounds), so overlapping policies — e.g. a re-run with a different
// Period whose boundaries partially coincide — reuse completed windows
// instead of recomputing them. Implementations must be safe for
// concurrent use.
type WindowMemo interface {
	Get(key string) (WindowResult, bool)
	Put(key string, wr WindowResult)
}

// Par configures RunPlan's consumer side: one Target per worker (each a
// dedicated core with its own memory, hierarchy, and predictor), plus an
// optional cross-run window memo.
type Par struct {
	Targets []Target
	// Memo, when non-nil, caches window results; it must be scoped to the
	// targets' core configuration and the plan's program.
	Memo WindowMemo
}

// Exec replays a plan's windows on a single target, in ascending index
// order. The target's core must have been Reset with the plan's program
// (so its memory holds the pristine image = delta version 0); Exec then
// tracks which deltas it has applied and brings the image forward lazily
// as it visits windows. Visiting a window out of order or twice is an
// error — create a fresh Exec (after re-Resetting the core) to rewind.
type Exec struct {
	plan    *Plan
	t       Target
	window  uint64 // detailed window length in cycles
	version int    // deltas applied so far
	lastIdx int
	before  []uint64
	after   []uint64
	delta   []uint64
}

// NewExec validates the target and binds it to the plan. window is the
// policy's detailed window length in cycles.
func NewExec(plan *Plan, t Target, window uint64) (*Exec, error) {
	if t.Core == nil || t.CPU == nil || t.Hier == nil || t.Pred == nil || t.Mem == nil {
		return nil, fmt.Errorf("sample: incomplete plan target (need Core, CPU, Hier, Pred, Mem)")
	}
	if window == 0 {
		return nil, fmt.Errorf("sample: zero window length")
	}
	return &Exec{plan: plan, t: t, window: window, lastIdx: -1}, nil
}

// Window executes spec i and returns its result. The recipe makes the
// result a pure function of the spec: materialize the window's memory
// from the plan deltas, rebase the core to power-on timing state
// (BeginWindow), restore the warm-start checkpoint, functionally replay
// the warm span, then attach and run the bounded detailed window.
func (e *Exec) Window(i int, o *Options) (WindowResult, error) {
	if i <= e.lastIdx {
		return WindowResult{}, fmt.Errorf("sample: window %d revisited on one Exec (last was %d)", i, e.lastIdx)
	}
	e.lastIdx = i
	spec := &e.plan.Specs[i]

	// Memory: program image + Deltas[0..MemVersion-1]. Deltas bypass the
	// CPU's store-path decode-cache invalidation, so flush it whenever
	// any frame changed under us.
	applied := false
	for v := e.version; v < spec.MemVersion; v++ {
		if fs := e.plan.Deltas[v]; len(fs) > 0 {
			e.t.Mem.ApplyFrames(fs)
			applied = true
		}
	}
	e.version = spec.MemVersion
	if applied {
		e.t.CPU.FlushDecode()
	}

	// Timing state: power-on caches/predictors at cycle zero, then the
	// functional warm replay trains them exactly as the spec prescribes.
	e.t.Core.BeginWindow()
	e.t.CPU.Restore(spec.Warm)
	if spec.WarmInsts > 0 {
		sw := o.Tracer.Begin("warm-up", "sample", o.Tid)
		warmed, err := fastForwardWarming(e.t, spec.WarmInsts)
		sw.End(obs.Arg{Key: "warmed", Val: warmed})
		if o.Telemetry != nil {
			o.Telemetry.WarmupReplays.Add(warmed)
		}
		if err != nil {
			return WindowResult{}, err
		}
		// Warming allocates MSHRs with ready times in the window's
		// future; clear them so the window does not start D$-blocked.
		e.t.Hier.MSHRs.Reset()
	}

	e.t.Core.Attach(e.t.CPU.Checkpoint())
	e.before = e.t.Core.CopyTally(e.before)
	startCycle, startInst := e.t.Core.Cycles(), e.t.Core.Insts()
	sp := o.Tracer.Begin("window", "sample", o.Tid)
	err := e.t.Core.RunWindowBounded(e.window, spec.MaxInsts)
	wCycles := e.t.Core.Cycles() - startCycle
	wInsts := e.t.Core.Insts() - startInst
	sp.End(obs.Arg{Key: "cycles", Val: wCycles}, obs.Arg{Key: "insts", Val: wInsts})
	if err != nil {
		return WindowResult{}, err
	}
	e.after = e.t.Core.CopyTally(e.after)
	e.delta = diffInto(e.delta, e.after, e.before)
	tally := make([]uint64, len(e.delta))
	copy(tally, e.delta)
	return WindowResult{Index: i, Cycles: wCycles, Insts: wInsts, Tally: tally}, nil
}

// asyncQueueID feeds the (cat, id) async-track keys for queue-wait
// events; the category is private to this file, so a process-wide
// counter cannot collide with other async emitters.
var asyncQueueID atomic.Uint64

// RunPlan is the consumer phase: it fans the plan's windows over
// par.Targets, executes each exactly once (or serves it from the memo),
// and merges the results in schedule order into a Report that is
// bit-identical no matter how many workers ran — every float in the
// aggregation is accumulated in window-index order from
// schedule-deterministic per-window integers.
func RunPlan(plan *Plan, p Policy, o Options, par Par) (*Report, error) {
	if err := plan.Compatible(p); err != nil {
		return nil, err
	}
	if o.Counts == nil {
		return nil, fmt.Errorf("sample: Options.Counts is required")
	}
	if len(par.Targets) == 0 {
		return nil, fmt.Errorf("sample: RunPlan needs at least one target")
	}

	n := len(plan.Specs)
	execs := make([]*Exec, len(par.Targets))
	for w, t := range par.Targets {
		ex, err := NewExec(plan, t, p.Window)
		if err != nil {
			return nil, fmt.Errorf("sample: target %d: %w", w, err)
		}
		execs[w] = ex
	}
	results := make([]WindowResult, n)
	errs := make([]error, n)

	windowKey := func(i int) string {
		s := &plan.Specs[i]
		return fmt.Sprintf("w%d|s%d|k%d|b%d", p.Window, s.StartInst, s.WarmInsts, s.MaxInsts)
	}

	if o.Telemetry != nil {
		o.Telemetry.QueueDepth.Set(int64(n))
	}
	enqueued := time.Now()
	var next atomic.Int64
	run := func(w int, wo Options) {
		ex := execs[w]
		for {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			if o.Telemetry != nil {
				o.Telemetry.QueueDepth.Add(-1)
			}
			wo.Tracer.Async("window-wait", "sample-queue", asyncQueueID.Add(1),
				enqueued, time.Now(), obs.Arg{Key: "window", Val: i})
			if par.Memo != nil {
				if wr, ok := par.Memo.Get(windowKey(i)); ok {
					results[i] = wr
					continue
				}
			}
			wr, err := ex.Window(i, &wo)
			if err != nil {
				errs[i] = err
				next.Store(int64(n)) // stop dispatching further windows
				continue
			}
			results[i] = wr
			if par.Memo != nil {
				par.Memo.Put(windowKey(i), wr)
			}
		}
	}

	if len(par.Targets) == 1 || n <= 1 {
		run(0, o)
	} else {
		var wg sync.WaitGroup
		for w := range par.Targets {
			wo := o
			if w > 0 {
				// Workers beyond the caller's own trace track get their
				// own named tracks, PR 4 style.
				wo.Tid = 1 + (o.Tid+1)*64 + w
				o.Tracer.NameThread(wo.Tid, fmt.Sprintf("sample-w%d.%d", o.Tid, w))
			}
			wg.Add(1)
			go func(w int, wo Options) {
				defer wg.Done()
				run(w, wo)
			}(w, wo)
		}
		wg.Wait()
	}
	if o.Telemetry != nil {
		o.Telemetry.QueueDepth.Set(0)
	}
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			return nil, errs[i]
		}
	}

	// Deterministic reduce: schedule order, independent of worker count
	// and completion order. StartCycle is the cumulative detailed cycle
	// count, mirroring the serial engine's monotone core clock.
	b := newReportBuilder(p, &o)
	var cumCycles, warmTotal uint64
	for i := 0; i < n; i++ {
		wr := &results[i]
		b.addWindow(plan.Specs[i].StartInst, cumCycles, wr.Cycles, wr.Insts, wr.Tally)
		cumCycles += wr.Cycles
		warmTotal += plan.Specs[i].WarmInsts
		if o.Telemetry != nil {
			o.Telemetry.Windows.Inc()
			o.Telemetry.DetailedCycles.Add(wr.Cycles)
			o.Telemetry.DetailedInsts.Add(wr.Insts)
		}
	}
	// Every instruction the windows did not retire ran functionally in
	// the producer pass, so the conservation invariant
	// FFInsts + DetailedInsts == TotalInsts holds by construction.
	// WarmupReplays comes from the specs, not the actual replays, so a
	// memo-served run reports identically to a computed one.
	ff := plan.TotalInsts - b.rep.DetailedInsts
	return b.finalize(plan.TotalInsts, ff, warmTotal, plan.Exit, plan.Halted)
}
