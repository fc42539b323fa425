package perf

import (
	"icicle/internal/asm"
	"icicle/internal/core"
	"icicle/internal/kernel"
	"icicle/internal/obs"
	"icicle/internal/pmu"
	"icicle/internal/sample"
)

// Core is the detailed-core contract: one surface over both timing
// models, so every layer above the cores (this package's runners, the
// sim core pool, the differential oracle, the CLIs) has one code path.
// *rocket.Core satisfies Core[rocket.Result] and *boom.Core satisfies
// Core[boom.Result]. Calls through it happen per job or per window,
// never inside the cycle loops.
type Core[R any] interface {
	// The window methods the sampling engines drive.
	sample.Core
	// Reset returns the core to power-on state with prog loaded; a Reset
	// core behaves byte-identically to a freshly built one.
	Reset(prog *asm.Program)
	// RunCycles simulates until the workload halts and the pipeline
	// drains.
	RunCycles() error
	SetTelemetry(t *obs.CoreTelemetry)
	SetStallSkip(on bool)
	// SetCycleHook installs a per-cycle observer (the trace bridge); a
	// hooked core steps every cycle.
	SetCycleHook(h pmu.CycleHook)

	// The per-core facts, each defined once in the core's package.

	// Name labels the core in reports ("rocket", "LargeBOOM", ...).
	Name() string
	// EventSpace indexes the dense tally.
	EventSpace() *pmu.Space
	// TMAConfig carries the core's TMA widths.
	TMAConfig() core.Config
	// Counts maps a dense tally onto the TMA model inputs.
	Counts(cycles, insts uint64, tally []uint64) core.Counts
	// Target bundles the core with the surfaces the sampling engines
	// share with it.
	Target() sample.Target
	// Result assembles a full-detail run's result.
	Result() R
	// Estimate assembles a sampled run's result from its report.
	Estimate(rep *sample.Report, withCaches bool) R
}

// Run resets the core, simulates the kernel on it to completion, and
// evaluates TMA. A fresh core and a reused one give byte-identical
// results, which is what makes the sim core pool invisible.
func Run[R any](c Core[R], k *kernel.Kernel) (R, core.Breakdown, error) {
	if err := Simulate(c, k); err != nil {
		var zero R
		return zero, core.Breakdown{}, err
	}
	return Tally(c)
}

// Simulate is the cycle-accurate half of Run: program, reset, and run to
// completion. Split out so callers (the sim pipeline spans) can time
// simulation and tallying separately.
func Simulate[R any](c Core[R], k *kernel.Kernel) error {
	prog, err := k.Program()
	if err != nil {
		return err
	}
	c.Reset(prog)
	return c.RunCycles()
}

// Tally is the evaluation half of Run: extract the event tallies and
// evaluate the TMA tree over them.
func Tally[R any](c Core[R]) (R, core.Breakdown, error) {
	b, err := Evaluate(c)
	return c.Result(), b, err
}

// Evaluate evaluates the TMA tree over the core's cumulative tallies.
func Evaluate[R any](c Core[R]) (core.Breakdown, error) {
	return core.Evaluate(c.TMAConfig(), c.Counts(c.Cycles(), c.Insts(), c.CopyTally(nil)))
}
