// Two-phase sampled-engine smoke: the golden serial-vs-parallel
// equivalence table. For every (config, program, policy) row the plan
// engine runs once with one window worker (the serial reference) and
// once with several; the two reports must be bit-identical — every
// float, every window, every tally — because the engine's reduce is
// schedule-ordered and each window result is a pure function of its
// spec. `make sample-par-smoke` (part of `make ci`) runs this under the
// race detector so the worker fan-out is exercised with checking on.
package icicle_test

import (
	"fmt"
	"reflect"
	"testing"

	"icicle/internal/asm"
	"icicle/internal/boom"
	"icicle/internal/kernel"
	"icicle/internal/perf"
	"icicle/internal/rocket"
	"icicle/internal/sample"
)

// parGoldenRow is one golden-table entry: a core config, a program, and
// a sampling policy the serial and parallel runs must agree on exactly.
type parGoldenRow struct {
	core   string // "rocket" or a BOOM size name
	boom   boom.Size
	kernel string
	policy sample.Policy
}

func parGoldenTable() []parGoldenRow {
	def := sample.Default()
	dense := sample.Policy{Window: 1024, Period: 24576, Warmup: 8192}
	return []parGoldenRow{
		{core: "rocket", kernel: "towers", policy: def},
		{core: "rocket", kernel: "mm", policy: dense},
		{core: "LargeBOOM", boom: boom.Large, kernel: "towers", policy: def},
		{core: "SmallBOOM", boom: boom.Small, kernel: "bfs", policy: def},
	}
}

func TestSampleParGoldenEquivalence(t *testing.T) {
	const workers = 4
	for _, row := range parGoldenTable() {
		row := row
		name := fmt.Sprintf("%s/%s/%s", row.core, row.kernel, row.policy)
		t.Run(name, func(t *testing.T) {
			k, err := kernel.ByName(row.kernel)
			if err != nil {
				t.Fatal(err)
			}
			runPar := func(w int) *sample.Report {
				t.Helper()
				var rep *sample.Report
				if row.core == "rocket" {
					cs := make([]*rocket.Core, w)
					for i := range cs {
						cs[i] = rocket.New(rocket.DefaultConfig(), k.MustProgram())
					}
					_, rep, _, err = perf.SamplePar(cs, k, row.policy, sample.Options{}, nil)
				} else {
					cs := make([]*boom.Core, w)
					for i := range cs {
						cs[i] = boom.MustNew(boom.NewConfig(row.boom), k.MustProgram())
					}
					_, rep, _, err = perf.SamplePar(cs, k, row.policy, sample.Options{}, nil)
				}
				if err != nil {
					t.Fatalf("%d workers: %v", w, err)
				}
				return rep
			}
			serial := runPar(1)
			checkSampleReport(t, row.core, serial)
			// The plan engine's conservation is exact: every instruction
			// ran functionally in the producer; the windows re-run a
			// subset in detail.
			if serial.FFInsts+serial.DetailedInsts != serial.TotalInsts {
				t.Errorf("plan engine conservation broken: FF %d + detailed %d != total %d",
					serial.FFInsts, serial.DetailedInsts, serial.TotalInsts)
			}
			par := runPar(workers)
			if !reflect.DeepEqual(serial, par) {
				t.Fatalf("parallel report differs from serial reference:\nserial: est %d windows %d tally %v\npar:    est %d windows %d tally %v",
					serial.EstCycles, len(serial.Windows), serial.Tally,
					par.EstCycles, len(par.Windows), par.Tally)
			}
			// And the parallel run itself is deterministic across repeats.
			if again := runPar(workers); !reflect.DeepEqual(par, again) {
				t.Fatal("repeated parallel run diverged")
			}
		})
	}
}

// TestSampleParInterleavedCores pins the pooled-core contract (the
// "windows are pure functions of their specs" half of the design): one
// shared core alternates between two different programs' windows — the
// way a pooled core hops between jobs — and every result must be
// bit-identical to the same window executed on a core dedicated to its
// program. A state leak across Attach (stale cache line, trained
// predictor entry, leftover memory frame) shows up as a diverging tally.
func TestSampleParInterleavedCores(t *testing.T) {
	p := sample.Default()
	type prep struct {
		prog *kernel.Kernel
		plan *sample.Plan
	}
	var preps []prep
	for _, name := range []string{"towers", "mm"} {
		k, err := kernel.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := perf.PlanFor(k, p, sample.Options{})
		if err != nil {
			t.Fatal(err)
		}
		preps = append(preps, prep{prog: k, plan: plan})
	}

	shared := rocket.New(rocket.DefaultConfig(), mustProgram(t, preps[0].prog))
	o := sample.Options{Counts: shared.Counts}

	// Reference: each program's windows on its own dedicated core, in
	// order, through one Exec.
	want := make([][]sample.WindowResult, len(preps))
	for pi, pr := range preps {
		prog, err := pr.prog.Program()
		if err != nil {
			t.Fatal(err)
		}
		c := rocket.New(rocket.DefaultConfig(), prog)
		ex, err := sample.NewExec(pr.plan, c.Target(), p.Window)
		if err != nil {
			t.Fatal(err)
		}
		for i := range pr.plan.Specs {
			wr, err := ex.Window(i, &o)
			if err != nil {
				t.Fatal(err)
			}
			want[pi] = append(want[pi], wr)
		}
	}

	// Interleaved: one shared core ping-pongs between the programs,
	// resetting and rebuilding its Exec on every hop exactly like the
	// sim pool does when a core is handed to a different job.
	maxW := len(want[0])
	if len(want[1]) > maxW {
		maxW = len(want[1])
	}
	for i := 0; i < maxW; i++ {
		for pi, pr := range preps {
			if i >= len(want[pi]) {
				continue
			}
			shared.Reset(mustProgram(t, pr.prog))
			ex, err := sample.NewExec(pr.plan, shared.Target(), p.Window)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ex.Window(i, &o)
			if err != nil {
				t.Fatalf("%s window %d on shared core: %v", pr.prog.Name, i, err)
			}
			if !reflect.DeepEqual(got, want[pi][i]) {
				t.Errorf("%s window %d diverged on the shared core: cycles %d vs %d, insts %d vs %d",
					pr.prog.Name, i, got.Cycles, want[pi][i].Cycles, got.Insts, want[pi][i].Insts)
			}
		}
	}
}

func mustProgram(t *testing.T, k *kernel.Kernel) *asm.Program {
	t.Helper()
	prog, err := k.Program()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}
