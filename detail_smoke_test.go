// Skip-vs-step golden equivalence: the event-driven skip path (PR 10)
// must be bit-identical to cycle-by-cycle stepping — same cycle counts,
// same per-event tallies and lane tallies, same cache stats, same
// architectural state. These tests run the same kernel with the skip
// enabled and disabled and require reflect.DeepEqual on the whole
// Result, for Rocket and every BOOM size, plus a sampled run whose
// windows exercise the skip path inside RunWindowBounded. `make
// detail-smoke` runs them race-gated in CI.
package icicle_test

import (
	"reflect"
	"testing"

	"icicle/internal/boom"
	"icicle/internal/kernel"
	"icicle/internal/perf"
	"icicle/internal/rocket"
	"icicle/internal/sample"
)

// detailSmokeKernels mixes stall-heavy kernels (where skipping engages
// constantly), aliasing/fence-heavy ones (replay, machine clears), and
// branch-dense ones (recovery interplay).
var detailSmokeKernels = []string{
	"vvadd", "spmv", "memcpy", "qsort", "brmiss", "fencemix", "towers",
}

func TestDetailSmokeRocketSkipEquivalence(t *testing.T) {
	anySkipped := false
	for _, name := range detailSmokeKernels {
		k, err := kernel.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		prog := k.MustProgram()

		on := rocket.New(rocket.DefaultConfig(), prog)
		rOn, err := on.Run()
		if err != nil {
			t.Fatalf("%s skip-on: %v", name, err)
		}
		off := rocket.New(rocket.DefaultConfig(), prog)
		off.SetStallSkip(false)
		rOff, err := off.Run()
		if err != nil {
			t.Fatalf("%s skip-off: %v", name, err)
		}
		if !reflect.DeepEqual(rOn, rOff) {
			t.Errorf("%s: rocket skip-on result diverges from skip-off\n on: %+v\noff: %+v", name, rOn, rOff)
		}
		if on.CPU.X != off.CPU.X {
			t.Errorf("%s: rocket architectural registers diverge", name)
		}
		if sc, _ := off.SkipStats(); sc != 0 {
			t.Errorf("%s: skip-off core reports %d skipped cycles", name, sc)
		}
		if sc, _ := on.SkipStats(); sc > 0 {
			anySkipped = true
		}
	}
	if !anySkipped {
		t.Error("skip path never engaged on any smoke kernel (vacuous equivalence)")
	}
}

func TestDetailSmokeBoomSkipEquivalence(t *testing.T) {
	anySkipped := false
	for _, size := range boom.Sizes {
		for _, name := range []string{"vvadd", "spmv", "qsort", "brmiss", "fencemix"} {
			k, err := kernel.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			prog := k.MustProgram()

			on, err := boom.New(boom.NewConfig(size), prog)
			if err != nil {
				t.Fatal(err)
			}
			rOn, err := on.Run()
			if err != nil {
				t.Fatalf("%s/%s skip-on: %v", size, name, err)
			}
			off, err := boom.New(boom.NewConfig(size), prog)
			if err != nil {
				t.Fatal(err)
			}
			off.SetStallSkip(false)
			rOff, err := off.Run()
			if err != nil {
				t.Fatalf("%s/%s skip-off: %v", size, name, err)
			}
			if !reflect.DeepEqual(rOn, rOff) {
				t.Errorf("%s/%s: boom skip-on result diverges from skip-off\n on: %+v\noff: %+v", size, name, rOn, rOff)
			}
			if on.CPU.X != off.CPU.X {
				t.Errorf("%s/%s: boom architectural registers diverge", size, name)
			}
			if sc, _ := on.SkipStats(); sc > 0 {
				anySkipped = true
			}
		}
	}
	if !anySkipped {
		t.Error("skip path never engaged on any boom smoke kernel (vacuous equivalence)")
	}
}

// TestDetailSmokeResetReuse proves a warmed, Reset core with the skip
// enabled reproduces the fresh-core result bit-for-bit (the sim core
// pool depends on Reset-reuse identity; the skip state must reset too).
func TestDetailSmokeResetReuse(t *testing.T) {
	k, err := kernel.ByName("spmv")
	if err != nil {
		t.Fatal(err)
	}
	prog := k.MustProgram()

	c := rocket.New(rocket.DefaultConfig(), prog)
	first, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	c.Reset(prog)
	second, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("rocket: reset-reuse run diverges with skip enabled")
	}

	bc, err := boom.New(boom.NewConfig(boom.Large), prog)
	if err != nil {
		t.Fatal(err)
	}
	bFirst, err := bc.Run()
	if err != nil {
		t.Fatal(err)
	}
	bc.Reset(prog)
	bSecond, err := bc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bFirst, bSecond) {
		t.Error("boom: reset-reuse run diverges with skip enabled")
	}
}

// TestDetailSmokeSampledReport proves the skip path composes with the
// two-phase sampled engine: detailed windows run through
// RunWindowBounded, whose skipLimit caps every jump at the window
// boundary, so the sampled report must be identical with and without
// skipping.
func TestDetailSmokeSampledReport(t *testing.T) {
	k, err := kernel.ByName("spmv")
	if err != nil {
		t.Fatal(err)
	}
	prog := k.MustProgram()
	pol := sample.Policy{Window: 1024, Period: 8192, Warmup: 2048}

	cfg := rocket.DefaultConfig()
	on := rocket.New(cfg, prog)
	resOn, repOn, bdOn, err := perf.Sample(on, k, pol, sample.Options{})
	if err != nil {
		t.Fatal(err)
	}
	off := rocket.New(cfg, prog)
	off.SetStallSkip(false)
	resOff, repOff, bdOff, err := perf.Sample(off, k, pol, sample.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resOn, resOff) {
		t.Errorf("sampled rocket result diverges:\n on: %+v\noff: %+v", resOn, resOff)
	}
	if !reflect.DeepEqual(repOn, repOff) {
		t.Error("sampled rocket report diverges")
	}
	if bdOn != bdOff {
		t.Errorf("sampled rocket breakdown diverges: on=%+v off=%+v", bdOn, bdOff)
	}

	bOn, err := boom.New(boom.NewConfig(boom.Large), prog)
	if err != nil {
		t.Fatal(err)
	}
	bResOn, bRepOn, bBdOn, err := perf.Sample(bOn, k, pol, sample.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bOff, err := boom.New(boom.NewConfig(boom.Large), prog)
	if err != nil {
		t.Fatal(err)
	}
	bOff.SetStallSkip(false)
	bResOff, bRepOff, bBdOff, err := perf.Sample(bOff, k, pol, sample.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bResOn, bResOff) {
		t.Errorf("sampled boom result diverges:\n on: %+v\noff: %+v", bResOn, bResOff)
	}
	if !reflect.DeepEqual(bRepOn, bRepOff) {
		t.Error("sampled boom report diverges")
	}
	if bBdOn != bBdOff {
		t.Errorf("sampled boom breakdown diverges: on=%+v off=%+v", bBdOn, bBdOff)
	}
}
