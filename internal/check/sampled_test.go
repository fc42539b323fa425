package check

import (
	"testing"

	"icicle/internal/boom"
	"icicle/internal/kernel"
	"icicle/internal/rocket"
	"icicle/internal/sample"
)

// TestSampledAccuracyStrategies is the golden accuracy table for sampled
// simulation: one long program per generation strategy, run full-detail
// and sampled on both core models, asserting the top-level TMA category
// shares land within a per-strategy epsilon. The programs are stretched
// to ~450k instructions (~25 windows at this policy) so the assertion
// tests estimation quality, not small-sample luck; the epsilons are set
// from measured errors with margin (see BENCH_5.json for the defaults
// picture).
func TestSampledAccuracyStrategies(t *testing.T) {
	if testing.Short() {
		t.Skip("sampled accuracy table is not a -short test")
	}
	// Denser schedule than sample.Default(): these programs are shorter
	// than the suite kernels the default is tuned for, and the golden
	// table wants enough windows per program for the estimator to
	// converge rather than a maximal speedup.
	p := sample.Policy{Window: 2048, Period: 16384, Warmup: 8192}
	cases := []struct {
		strategy string
		iters    int // outer-loop trips, sized for ~450k dynamic insts
		seed     int64
		// category-share epsilon (absolute, 1.0 == 100%) per core
		epsRocket, epsLarge float64
	}{
		{"mixed", 8000, 7, 0.03, 0.02},
		{"alu-heavy", 7000, 7, 0.03, 0.02},
		{"memory-aliasing", 5500, 7, 0.03, 0.02},
		{"branch-dense", 16000, 7, 0.03, 0.03},
		// Loop-carried serial chains give Rocket's CPI the highest
		// window-to-window variance of the table; the bound is wider.
		{"loop-carried", 6000, 7, 0.05, 0.02},
	}
	large := boom.NewConfig(boom.Large)
	for _, tc := range cases {
		tc := tc
		t.Run(tc.strategy, func(t *testing.T) {
			s, err := kernel.StrategyByName(tc.strategy)
			if err != nil {
				t.Fatal(err)
			}
			s.MinIters, s.MaxIters = tc.iters, tc.iters+1
			k := &kernel.Kernel{Name: tc.strategy + "-long", Source: s.Program(tc.seed)}
			for _, e := range engines {
				e := e
				t.Run(e.name, func(t *testing.T) {
					dr, err := CompareSampled(rocket.New(rocket.DefaultConfig(), k.MustProgram()), k, p, e.plan)
					assertBudget(t, dr, err, tc.epsRocket, e.plan && planRocketGaps[tc.strategy])
					db, err := CompareSampled(boom.MustNew(large, k.MustProgram()), k, p, e.plan)
					assertBudget(t, db, err, tc.epsLarge, false)
				})
			}
		})
	}
}

// engines is the sampled-engine axis of the accuracy tables: the serial
// controller (sample.Run) and the two-phase plan engine at one worker.
var engines = []struct {
	name string
	plan bool
}{{"serial", false}, {"plan", true}}

// planRocketGaps is the known-gap set: TestSampledAccuracyStrategies rows
// where the plan engine on Rocket misses the budget the serial engine
// meets (measured max category error: mixed 6.84pp, memory-aliasing
// 10.43pp, branch-dense 4.27pp, against 3pp). Unlike the serial engine,
// which carries warm timing state from window to window, the plan engine
// starts each window from power-on timing state plus its warm-up replay.
// The rows are logged, not asserted, and fail once they start to pass,
// so the set cannot go stale; moving the pins onto the plan engine
// waits on closing these gaps.
var planRocketGaps = map[string]bool{"mixed": true, "memory-aliasing": true, "branch-dense": true}

// assertBudget fails a differential whose worst top-level category error
// exceeds budget — or, for a known gap, logs the miss and fails once the
// row is within budget.
func assertBudget(t *testing.T, d SampledDiff, err error, budget float64, knownGap bool) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%s", d)
	got := d.MaxTopLevelErr()
	switch {
	case knownGap && got <= budget:
		t.Errorf("%s/%s: known gap closed (%.2fpp within the %.2fpp budget); drop it from planRocketGaps",
			d.Core, d.Kernel, 100*got, 100*budget)
	case knownGap:
		t.Logf("%s/%s: known gap: max category error %.2fpp > %.2fpp budget", d.Core, d.Kernel, 100*got, 100*budget)
	case got > budget:
		t.Errorf("%s max category error %.2fpp > %.2fpp budget", d.Core, 100*got, 100*budget)
	}
}

// TestSampledAccuracyDefaultPolicy is the headline acceptance check: on a
// long-running suite kernel at the default sampling parameters, every
// top-level TMA category share from the sampled run is within 2
// percentage points of the full-detail run, on both core models. The
// matching wall-clock claim lives in BenchmarkSampledVsFull.
func TestSampledAccuracyDefaultPolicy(t *testing.T) {
	k, err := kernel.ByName("towers")
	if err != nil {
		t.Fatal(err)
	}
	p := sample.Default()
	large := boom.NewConfig(boom.Large)
	for _, e := range engines {
		e := e
		t.Run(e.name, func(t *testing.T) {
			dr, err := CompareSampled(rocket.New(rocket.DefaultConfig(), k.MustProgram()), k, p, e.plan)
			assertDefaultPolicy(t, dr, err)
			db, err := CompareSampled(boom.MustNew(large, k.MustProgram()), k, p, e.plan)
			assertDefaultPolicy(t, db, err)
		})
	}
}

// assertDefaultPolicy holds a default-policy differential to 2pp per
// top-level category and 5% cycle error.
func assertDefaultPolicy(t *testing.T, d SampledDiff, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%s", d)
	for i, e := range d.Err {
		if e > 0.02 || e < -0.02 {
			t.Errorf("%s %s share off by %.2fpp (limit 2pp)",
				d.Core, CategoryNames[i], 100*e)
		}
	}
	if d.CycleErr > 0.05 {
		t.Errorf("%s cycle estimate off by %.2f%%", d.Core, 100*d.CycleErr)
	}
}
