package perf

import (
	"fmt"
	"sync"

	"icicle/internal/core"
	"icicle/internal/isa"
	"icicle/internal/kernel"
	"icicle/internal/mem"
	"icicle/internal/sample"
)

// sampleOptions fills zero-valued Options fields with the core's facts:
// its counts mapping, TMA widths, and event names.
func sampleOptions[R any](c Core[R], o sample.Options) sample.Options {
	if o.Counts == nil {
		o.Counts = c.Counts
	}
	if o.TMA.CommitWidth == 0 {
		o.TMA = c.TMAConfig()
	}
	if o.EventNames == nil {
		o.EventNames = c.EventSpace().Names()
	}
	return o
}

// Sample resets the core and runs the kernel under the sampling policy on
// the serial engine (sample.Run). Zero-valued Options fields are filled
// from the core's facts; the returned result carries extrapolated cycle
// and event totals (its Insts are exact).
func Sample[R any](c Core[R], k *kernel.Kernel, p sample.Policy, o sample.Options) (R, *sample.Report, core.Breakdown, error) {
	var zero R
	prog, err := k.Program()
	if err != nil {
		return zero, nil, core.Breakdown{}, err
	}
	c.Reset(prog)
	rep, err := sample.Run(c.Target(), p, sampleOptions(c, o))
	if err != nil {
		return zero, nil, core.Breakdown{}, err
	}
	return c.Estimate(rep, true), rep, rep.Breakdown, nil
}

// SamplePar runs the kernel under the two-phase sampled engine, fanning
// the plan's detailed windows over the given worker cores (all built
// with the same config; each is Reset first). One core is the serial
// reference — the report is bit-identical for any worker count. memo,
// when non-nil, caches per-window results across runs; it must be scoped
// to the cores' configuration and the kernel. The returned result
// carries extrapolated totals like Sample's, except its cache statistics
// stay zero: per-window hierarchy resets make cumulative cache counters
// meaningless here.
func SamplePar[C Core[R], R any](cs []C, k *kernel.Kernel, p sample.Policy, o sample.Options, memo sample.WindowMemo) (R, *sample.Report, core.Breakdown, error) {
	var zero R
	if len(cs) == 0 {
		return zero, nil, core.Breakdown{}, fmt.Errorf("perf: no worker cores")
	}
	prog, err := k.Program()
	if err != nil {
		return zero, nil, core.Breakdown{}, err
	}
	o = sampleOptions(cs[0], o)
	plan, err := PlanFor(k, p, o)
	if err != nil {
		return zero, nil, core.Breakdown{}, err
	}
	targets := make([]sample.Target, len(cs))
	for i, c := range cs {
		c.Reset(prog)
		targets[i] = c.Target()
	}
	rep, err := sample.RunPlan(plan, p, o, sample.Par{Targets: targets, Memo: memo})
	if err != nil {
		return zero, nil, core.Breakdown{}, err
	}
	return cs[0].Estimate(rep, false), rep, rep.Breakdown, nil
}

// Plan cache: the producer pass of the two-phase sampled engine is a
// full functional run of the program, which would dominate sampled wall
// time if repeated per job (BENCH_5.json: fast-forward is ~2/3 of a
// serial sampled run). A plan depends only on the program and the
// sampling cadence — not on the core config or the window length — so
// one cached plan serves a whole config sweep on both core models. The
// cache is process-wide with singleflight builds, like sim's job cache.
type planEntry struct {
	done chan struct{}
	plan *sample.Plan
	err  error
}

var (
	planMu    sync.Mutex
	planCache = map[string]*planEntry{}
)

// PlanFor returns the (possibly cached) window plan for the kernel under
// the policy's cadence. Options only matter for the build (tracing and
// telemetry of the producer pass); cache hits ignore them.
func PlanFor(k *kernel.Kernel, p sample.Policy, o sample.Options) (*sample.Plan, error) {
	key := k.Name + "|" + p.ScheduleKey()
	planMu.Lock()
	if e, ok := planCache[key]; ok {
		planMu.Unlock()
		<-e.done
		return e.plan, e.err
	}
	e := &planEntry{done: make(chan struct{})}
	planCache[key] = e
	planMu.Unlock()
	e.plan, e.err = buildPlan(k, p, o)
	close(e.done)
	return e.plan, e.err
}

// ResetPlanCache drops every cached plan (benchmark ablations measure
// cold builds with this).
func ResetPlanCache() {
	planMu.Lock()
	planCache = map[string]*planEntry{}
	planMu.Unlock()
}

// buildPlan runs the producer pass on a dedicated functional CPU.
func buildPlan(k *kernel.Kernel, p sample.Policy, o sample.Options) (*sample.Plan, error) {
	prog, err := k.Program()
	if err != nil {
		return nil, err
	}
	m := mem.NewSparse()
	prog.LoadInto(m)
	cpu := isa.NewCPU(m, prog.Entry)
	return sample.BuildPlan(cpu, m, p, o)
}
