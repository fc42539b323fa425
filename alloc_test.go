// Allocation-regression smoke tests: the arena/reset work makes a warmed
// core's cycle loop allocation-free, and these tests pin that as a
// checked-in budget so a regression (a stray append past capacity, a
// map rebuilt per run, a uop escaping to the heap) fails `make ci`
// rather than silently eroding sweep throughput.
package icicle_test

import (
	"testing"

	"icicle/internal/boom"
	"icicle/internal/isa"
	"icicle/internal/kernel"
	"icicle/internal/mem"
	"icicle/internal/obs"
	"icicle/internal/perf"
	"icicle/internal/rocket"
	"icicle/internal/sample"
)

// Steady-state allocation budgets, in allocs per full simulated run
// (Reset + RunCycles) on an already-warmed core. Zero is the invariant
// documented in DESIGN.md; raise these only with a written justification.
const (
	rocketRunAllocBudget = 0
	boomRunAllocBudget   = 0

	// A warmed serial sampled run allocates only for the report it
	// returns (Report, window stats, CI scratch, tally maps) — the
	// controller's per-window diff buffers are one pre-sized scratch
	// slab reused across windows, so the budget is flat in the window
	// count. Measured 93 on towers/default-policy; the headroom covers
	// map-growth jitter only, not a per-window regression.
	sampledRunAllocBudget = 100

	// A warmed superblock functional run allocates nothing: blocks are
	// translated on the first pass, and Reset's decode flush only bumps
	// the generation counter — stale blocks re-verify their cached
	// words and restamp in place rather than re-translating (see
	// internal/isa/superblock.go).
	superblockRunAllocBudget = 0
)

func TestRocketSteadyStateAllocs(t *testing.T) {
	k, err := kernel.ByName("towers")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := k.Program()
	if err != nil {
		t.Fatal(err)
	}
	c := rocket.New(rocket.DefaultConfig(), prog)
	// AllocsPerRun performs its own warm-up call before measuring, which
	// doubles as the capacity-growing first run.
	allocs := testing.AllocsPerRun(3, func() {
		c.Reset(prog)
		if err := c.RunCycles(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > rocketRunAllocBudget {
		t.Errorf("rocket steady-state run allocates %.1f objects, budget %d",
			allocs, rocketRunAllocBudget)
	}
}

// TestTelemetryKeepsCycleLoopAllocFree pins the obs invariant: the cores'
// periodic telemetry flush must cost zero allocations per run both when a
// registry-backed handle is installed and when telemetry is disabled (nil
// handle — a single pointer test per flush check).
func TestTelemetryKeepsCycleLoopAllocFree(t *testing.T) {
	k, err := kernel.ByName("towers")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := k.Program()
	if err != nil {
		t.Fatal(err)
	}
	run := func(t *testing.T, rc *rocket.Core, bc *boom.Core) {
		t.Helper()
		if allocs := testing.AllocsPerRun(3, func() {
			rc.Reset(prog)
			if err := rc.RunCycles(); err != nil {
				t.Fatal(err)
			}
		}); allocs > rocketRunAllocBudget {
			t.Errorf("rocket run allocates %.1f objects, budget %d", allocs, rocketRunAllocBudget)
		}
		if allocs := testing.AllocsPerRun(3, func() {
			bc.Reset(prog)
			if err := bc.RunCycles(); err != nil {
				t.Fatal(err)
			}
		}); allocs > boomRunAllocBudget {
			t.Errorf("boom run allocates %.1f objects, budget %d", allocs, boomRunAllocBudget)
		}
	}
	rc := rocket.New(rocket.DefaultConfig(), prog)
	bc, err := boom.New(boom.NewConfig(boom.Large), prog)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("metrics-enabled", func(t *testing.T) {
		reg := obs.NewRegistry()
		rc.SetTelemetry(obs.CoreTelemetryIn(reg, "rocket"))
		bc.SetTelemetry(obs.CoreTelemetryIn(reg, "boom"))
		run(t, rc, bc)
		if reg.Counter("icicle_rocket_cycles_simulated_total", "").Value() == 0 {
			t.Error("registry-backed telemetry saw no rocket cycles")
		}
		if reg.Counter("icicle_boom_cycles_simulated_total", "").Value() == 0 {
			t.Error("registry-backed telemetry saw no boom cycles")
		}
	})
	t.Run("handle-nil", func(t *testing.T) {
		rc.SetTelemetry(nil)
		bc.SetTelemetry(nil)
		run(t, rc, bc)
	})
}

// TestSampledRunAllocs pins the sampling controller's scratch-buffer
// reuse: tally diffs across windows share one pre-sized slab, so a
// warmed core's sampled run allocates a fixed number of objects no
// matter how many windows the policy schedules.
func TestSampledRunAllocs(t *testing.T) {
	k, err := kernel.ByName("towers")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := k.Program()
	if err != nil {
		t.Fatal(err)
	}
	c := rocket.New(rocket.DefaultConfig(), prog)
	p := sample.Default()
	allocs := testing.AllocsPerRun(3, func() {
		if _, _, _, err := perf.Sample(c, k, p, sample.Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > sampledRunAllocBudget {
		t.Errorf("sampled run allocates %.1f objects, budget %d",
			allocs, sampledRunAllocBudget)
	}
}

// TestSuperblockRunAllocs pins the functional engine's steady state:
// once a program's superblocks are translated, re-running it end to end
// (memory reset + reload, CPU reset, full execution) stays on the
// epoch-restamp path and allocates zero objects.
func TestSuperblockRunAllocs(t *testing.T) {
	k, err := kernel.ByName("towers")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := k.Program()
	if err != nil {
		t.Fatal(err)
	}
	m := mem.NewSparse()
	prog.LoadInto(m)
	c := isa.NewCPU(m, prog.Entry)
	c.SetSuperblocks(true)
	allocs := testing.AllocsPerRun(3, func() {
		m.Reset()
		prog.LoadInto(m)
		c.Reset(prog.Entry)
		if _, err := c.Run(50_000_000); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > superblockRunAllocBudget {
		t.Errorf("warmed superblock run allocates %.1f objects, budget %d",
			allocs, superblockRunAllocBudget)
	}
	if st := c.SuperblockStats(); st.Hits == 0 {
		t.Error("superblock cache unused; the pin is vacuous")
	}
}

// TestStallSkipAllocs pins the event-driven skip path: on a memory-bound
// kernel where quiescent stretches dominate, a warmed run must stay at
// zero allocations whether stall skipping is on (the quiescence predicate
// and bulk tallies allocate nothing) or off, on both detailed cores. The
// skip-on legs also assert the skip actually engaged, so the pin cannot
// go vacuous if a future change quietly disables skipping.
func TestStallSkipAllocs(t *testing.T) {
	k, err := kernel.ByName("spmv")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := k.Program()
	if err != nil {
		t.Fatal(err)
	}
	rc := rocket.New(rocket.DefaultConfig(), prog)
	bc, err := boom.New(boom.NewConfig(boom.Large), prog)
	if err != nil {
		t.Fatal(err)
	}
	for _, skip := range []bool{true, false} {
		rc.SetStallSkip(skip)
		if allocs := testing.AllocsPerRun(3, func() {
			rc.Reset(prog)
			if err := rc.RunCycles(); err != nil {
				t.Fatal(err)
			}
		}); allocs > rocketRunAllocBudget {
			t.Errorf("rocket run (skip=%v) allocates %.1f objects, budget %d",
				skip, allocs, rocketRunAllocBudget)
		}
		if skipped, _ := rc.SkipStats(); skip && skipped == 0 {
			t.Error("rocket skip path never engaged on spmv; the pin is vacuous")
		}
		bc.SetStallSkip(skip)
		if allocs := testing.AllocsPerRun(3, func() {
			bc.Reset(prog)
			if err := bc.RunCycles(); err != nil {
				t.Fatal(err)
			}
		}); allocs > boomRunAllocBudget {
			t.Errorf("boom run (skip=%v) allocates %.1f objects, budget %d",
				skip, allocs, boomRunAllocBudget)
		}
		if skipped, _ := bc.SkipStats(); skip && skipped == 0 {
			t.Error("boom skip path never engaged on spmv; the pin is vacuous")
		}
	}
}

func TestBoomSteadyStateAllocs(t *testing.T) {
	k, err := kernel.ByName("towers")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := k.Program()
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []boom.Size{boom.Small, boom.Large, boom.Mega} {
		c, err := boom.New(boom.NewConfig(size), prog)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(3, func() {
			c.Reset(prog)
			if err := c.RunCycles(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > boomRunAllocBudget {
			t.Errorf("%v boom steady-state run allocates %.1f objects, budget %d",
				size, allocs, boomRunAllocBudget)
		}
	}
}
