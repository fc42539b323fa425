package check

import (
	"fmt"
	"math"

	"icicle/internal/core"
	"icicle/internal/kernel"
	"icicle/internal/perf"
	"icicle/internal/sample"
)

// SampledDiff is one sampled-vs-full differential: the same kernel on the
// same core config, run once cycle-accurately end to end and once under
// the sampling policy, with per-category TMA share errors.
type SampledDiff struct {
	Core   string
	Kernel string
	Policy sample.Policy

	FullCycles uint64
	EstCycles  uint64
	FullInsts  uint64
	Insts      uint64 // sampled TotalInsts (architectural; must equal FullInsts)
	FullExit   uint64
	Exit       uint64

	Full    core.Breakdown
	Sampled core.Breakdown
	Report  *sample.Report

	// Err holds the absolute error in the four top-level category shares
	// (sampled − full): Retiring, BadSpec, Frontend, Backend.
	Err [4]float64
	// CycleErr is the relative cycle-count error |est−full|/full.
	CycleErr float64
}

// CategoryNames labels SampledDiff.Err.
var CategoryNames = [4]string{"Retiring", "BadSpec", "Frontend", "Backend"}

// MaxTopLevelErr returns the worst absolute top-level share error.
func (d SampledDiff) MaxTopLevelErr() float64 {
	worst := 0.0
	for _, e := range d.Err {
		if a := math.Abs(e); a > worst {
			worst = a
		}
	}
	return worst
}

// Check validates the invariants every sampled run must satisfy
// regardless of accuracy: exact architectural instruction and exit
// totals, and a halted program.
func (d SampledDiff) Check() error {
	if d.Insts != d.FullInsts {
		return fmt.Errorf("%s/%s: sampled retired %d insts, full %d — the architectural stream diverged",
			d.Core, d.Kernel, d.Insts, d.FullInsts)
	}
	if d.Exit != d.FullExit {
		return fmt.Errorf("%s/%s: sampled exit %#x, full %#x",
			d.Core, d.Kernel, d.Exit, d.FullExit)
	}
	if d.Report == nil || !d.Report.Halted {
		return fmt.Errorf("%s/%s: sampled run did not halt", d.Core, d.Kernel)
	}
	return nil
}

func (d SampledDiff) String() string {
	return fmt.Sprintf("%s/%s %s: cycles %d vs %d (%.2f%% err), max category err %.2fpp, coverage %.1f%%",
		d.Core, d.Kernel, d.Policy, d.EstCycles, d.FullCycles, 100*d.CycleErr,
		100*d.MaxTopLevelErr(), 100*d.Report.Coverage)
}

func diffFrom(coreName, kernelName string, p sample.Policy,
	fullCycles, fullInsts, fullExit uint64, full core.Breakdown,
	rep *sample.Report) SampledDiff {
	d := SampledDiff{
		Core: coreName, Kernel: kernelName, Policy: p,
		FullCycles: fullCycles, EstCycles: rep.EstCycles,
		FullInsts: fullInsts, Insts: rep.TotalInsts,
		FullExit: fullExit, Exit: rep.Exit,
		Full: full, Sampled: rep.Breakdown, Report: rep,
	}
	d.Err = [4]float64{
		rep.Breakdown.Retiring - full.Retiring,
		rep.Breakdown.BadSpec - full.BadSpec,
		rep.Breakdown.Frontend - full.Frontend,
		rep.Breakdown.Backend - full.Backend,
	}
	if fullCycles > 0 {
		d.CycleErr = math.Abs(float64(rep.EstCycles)-float64(fullCycles)) / float64(fullCycles)
	}
	return d
}

// CompareSampled runs the kernel on the core both ways — full detail,
// then under the sampling policy on the serial engine or, with plan, on
// the two-phase plan engine (one window worker) — and returns the
// differential. The core is Reset before each run.
func CompareSampled[R any](c perf.Core[R], k *kernel.Kernel, p sample.Policy, plan bool) (SampledDiff, error) {
	_, fb, err := perf.Run(c, k)
	if err != nil {
		return SampledDiff{}, fmt.Errorf("full %s run: %w", c.Name(), err)
	}
	fullCycles, fullInsts, fullExit := c.Cycles(), c.Insts(), c.Target().CPU.ExitCode
	var rep *sample.Report
	if plan {
		_, rep, _, err = perf.SamplePar([]perf.Core[R]{c}, k, p, sample.Options{}, nil)
	} else {
		_, rep, _, err = perf.Sample(c, k, p, sample.Options{})
	}
	if err != nil {
		return SampledDiff{}, fmt.Errorf("sampled %s run: %w", c.Name(), err)
	}
	d := diffFrom(c.Name(), k.Name, p, fullCycles, fullInsts, fullExit, fb, rep)
	return d, d.Check()
}
