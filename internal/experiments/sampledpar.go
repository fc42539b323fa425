package experiments

import (
	"fmt"
	"io"
	"reflect"
	"time"

	"icicle/internal/boom"
	"icicle/internal/kernel"
	"icicle/internal/perf"
	"icicle/internal/rocket"
	"icicle/internal/sample"
)

// SampledParRow is one (core, kernel) pair run through the two-phase
// sampled engine twice — serial (one window worker) and parallel — with
// a field-for-field report comparison. Identical must always be true:
// the plan engine's reduce is schedule-ordered, so the report is a pure
// function of the plan, not of the worker count.
type SampledParRow struct {
	Core   string
	Kernel string

	EstCycles uint64
	Insts     uint64
	Windows   int
	CPI       float64

	Identical  bool
	SerialWall time.Duration
	ParWall    time.Duration
}

// Speedup is the serial-over-parallel wall-time ratio for this row.
// Wall times here include only the consumer phase plus warm replay (the
// plan is built once and shared), so this is the window-phase scaling.
func (r SampledParRow) Speedup() float64 {
	if r.ParWall <= 0 {
		return 0
	}
	return float64(r.SerialWall) / float64(r.ParWall)
}

// SampledParCheck is the parallel-vs-serial validation artifact for the
// two-phase engine: every row's parallel report must be bit-identical to
// its serial reference.
type SampledParCheck struct {
	Policy  sample.Policy
	Workers int
	Rows    []SampledParRow
}

// AllIdentical reports whether every row passed the comparison.
func (sc SampledParCheck) AllIdentical() bool {
	for _, r := range sc.Rows {
		if !r.Identical {
			return false
		}
	}
	return len(sc.Rows) > 0
}

// Fprint renders the check table.
func (sc SampledParCheck) Fprint(w io.Writer) {
	fmt.Fprintf(w, "-- Two-phase sampled engine: serial vs %d-worker reports (policy %s) --\n",
		sc.Workers, sc.Policy)
	for _, r := range sc.Rows {
		verdict := "IDENTICAL"
		if !r.Identical {
			verdict = "MISMATCH"
		}
		fmt.Fprintf(w, "%-9s %-10s est %8d  insts %8d  windows %3d  CPI %.4f  %-9s  serial %s  par %s  %.2fx\n",
			r.Core, r.Kernel, r.EstCycles, r.Insts, r.Windows, r.CPI, verdict,
			r.SerialWall.Round(time.Microsecond), r.ParWall.Round(time.Microsecond), r.Speedup())
	}
	if sc.AllIdentical() {
		fmt.Fprintln(w, "all parallel reports bit-identical to their serial references")
	} else {
		fmt.Fprintln(w, "WARNING: parallel report mismatch — two-phase determinism broken")
	}
}

// SampledParVsSerial runs the microbenchmark pairs through the two-phase
// engine at one worker and at the given worker count, comparing the full
// reports with reflect.DeepEqual (every field, every window, every
// float). It bypasses the sim job cache and window memo on purpose: both
// runs must actually execute their windows for the comparison to mean
// anything. The plan cache is shared — that is the engine's design — so
// the producer pass runs once per (kernel, cadence).
func SampledParVsSerial(p sample.Policy, workers int) (SampledParCheck, error) {
	defer phase("SampledParVsSerial")()
	if workers < 2 {
		workers = 2
	}
	names := []string{"towers", "mm", "bfs"}
	large := boom.NewConfig(boom.Large)
	sc := SampledParCheck{Policy: p, Workers: workers}

	for _, name := range names {
		k, err := kernel.ByName(name)
		if err != nil {
			return SampledParCheck{}, err
		}
		prog, err := k.Program()
		if err != nil {
			return SampledParCheck{}, err
		}
		// Cores are built and the plan pre-warmed outside the timed
		// region so the wall columns time the engine, not construction.
		if _, err := perf.PlanFor(k, p, sample.Options{}); err != nil {
			return SampledParCheck{}, err
		}
		rcs, bcs := make([]*rocket.Core, workers), make([]*boom.Core, workers)
		for i := range rcs {
			rcs[i] = rocket.New(rocket.DefaultConfig(), prog)
			if bcs[i], err = boom.New(large, prog); err != nil {
				return SampledParCheck{}, err
			}
		}

		rr, err := parRow(rcs, k, p)
		if err != nil {
			return SampledParCheck{}, err
		}
		br, err := parRow(bcs, k, p)
		if err != nil {
			return SampledParCheck{}, err
		}
		sc.Rows = append(sc.Rows, rr, br)
	}
	return sc, nil
}

// parRow runs the kernel through the plan engine on the first core alone
// (the serial reference) and then on all of them, and compares the two
// reports field for field.
func parRow[C perf.Core[R], R any](cs []C, k *kernel.Kernel, p sample.Policy) (SampledParRow, error) {
	t0 := time.Now()
	_, serial, _, err := perf.SamplePar(cs[:1], k, p, sample.Options{}, nil)
	serialWall := time.Since(t0)
	if err != nil {
		return SampledParRow{}, err
	}
	t0 = time.Now()
	_, par, _, err := perf.SamplePar(cs, k, p, sample.Options{}, nil)
	parWall := time.Since(t0)
	if err != nil {
		return SampledParRow{}, err
	}
	return SampledParRow{
		Core: cs[0].Name(), Kernel: k.Name,
		EstCycles: serial.EstCycles, Insts: serial.TotalInsts,
		Windows: len(serial.Windows), CPI: serial.CPI,
		Identical:  reflect.DeepEqual(serial, par),
		SerialWall: serialWall, ParWall: parWall,
	}, nil
}
