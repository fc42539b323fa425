package sample_test

import (
	"testing"

	"icicle/internal/kernel"
	"icicle/internal/perf"
	"icicle/internal/rocket"
	"icicle/internal/sample"
)

func TestPolicyValidate(t *testing.T) {
	cases := []struct {
		name string
		p    sample.Policy
		ok   bool
	}{
		{"disabled", sample.Policy{}, true},
		{"default", sample.Default(), true},
		{"zero-period", sample.Policy{Window: 100}, false},
		{"negative-warmup", sample.Policy{Window: 100, Period: 100, Warmup: -1}, false},
		{"zero-warmup", sample.Policy{Window: 100, Period: 100}, true},
	}
	for _, tc := range cases {
		err := tc.p.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
	if sample.Policy.Enabled(sample.Policy{}) {
		t.Error("zero policy should be disabled")
	}
	if !sample.Default().Enabled() {
		t.Error("Default policy should be enabled")
	}
}

// TestSampledDeterminism: a fixed (config, kernel, policy) triple yields
// byte-identical reports on repeated runs — systematic sampling has no
// hidden randomness.
func TestSampledDeterminism(t *testing.T) {
	k, err := kernel.ByName("towers")
	if err != nil {
		t.Fatal(err)
	}
	p := sample.Policy{Window: 512, Period: 4096, Warmup: 512}
	run := func() (*sample.Report, rocket.Result) {
		res, rep, _, err := perf.Sample(rocket.New(rocket.DefaultConfig(), k.MustProgram()), k, p, sample.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return rep, res
	}
	rep1, res1 := run()
	rep2, res2 := run()
	if rep1.EstCycles != rep2.EstCycles || rep1.TotalInsts != rep2.TotalInsts ||
		rep1.DetailedCycles != rep2.DetailedCycles || rep1.DetailedInsts != rep2.DetailedInsts ||
		rep1.FFInsts != rep2.FFInsts || len(rep1.Windows) != len(rep2.Windows) {
		t.Fatalf("sampled runs diverged:\n%+v\nvs\n%+v", rep1, rep2)
	}
	for i := range rep1.Tally {
		if rep1.Tally[i] != rep2.Tally[i] {
			t.Fatalf("tally[%d] diverged: %d vs %d", i, rep1.Tally[i], rep2.Tally[i])
		}
	}
	if rep1.Breakdown.Retiring != rep2.Breakdown.Retiring ||
		rep1.Breakdown.BadSpec != rep2.Breakdown.BadSpec ||
		rep1.Breakdown.Frontend != rep2.Breakdown.Frontend ||
		rep1.Breakdown.Backend != rep2.Breakdown.Backend {
		t.Fatal("sampled breakdowns diverged across identical runs")
	}
	for name, v := range res1.Tally {
		if res2.Tally[name] != v {
			t.Fatalf("scaled tally %q diverged: %d vs %d", name, v, res2.Tally[name])
		}
	}
}

// TestShortProgramExact: a program that halts inside the first window
// never fast-forwards, so the "sampled" run is a full-detail run and the
// report is exact — including the cycle count, which must match an
// ordinary full run on the same config.
func TestShortProgramExact(t *testing.T) {
	k, err := kernel.ByName("vvadd")
	if err != nil {
		t.Fatal(err)
	}
	full, _, err := perf.Run(rocket.New(rocket.DefaultConfig(), k.MustProgram()), k)
	if err != nil {
		t.Fatal(err)
	}
	p := sample.Policy{Window: full.Cycles + 1000, Period: 1 << 20, Warmup: 64}
	res, rep, _, err := perf.Sample(rocket.New(rocket.DefaultConfig(), k.MustProgram()), k, p, sample.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Exact {
		t.Fatalf("run with window %d > program length %d should be exact", p.Window, full.Cycles)
	}
	if rep.EstCycles != full.Cycles {
		t.Fatalf("exact sampled cycles = %d, full-detail cycles = %d", rep.EstCycles, full.Cycles)
	}
	if rep.TotalInsts != full.Insts {
		t.Fatalf("exact sampled insts = %d, full-detail insts = %d", rep.TotalInsts, full.Insts)
	}
	if rep.Coverage != 1 {
		t.Fatalf("exact run coverage = %v, want 1", rep.Coverage)
	}
	for name, v := range full.Tally {
		if res.Tally[name] != v {
			t.Fatalf("exact sampled tally %q = %d, full-detail = %d", name, res.Tally[name], v)
		}
	}
	if res.Exit != full.Exit {
		t.Fatalf("exit = %d, want %d", res.Exit, full.Exit)
	}
}

// TestSampledReportShape sanity-checks the report bookkeeping on a run
// that actually alternates phases.
func TestSampledReportShape(t *testing.T) {
	k, err := kernel.ByName("towers")
	if err != nil {
		t.Fatal(err)
	}
	p := sample.Policy{Window: 256, Period: 2048, Warmup: 256}
	_, rep, _, err := perf.Sample(rocket.New(rocket.DefaultConfig(), k.MustProgram()), k, p, sample.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Exact {
		t.Skip("towers fits in one 256-cycle window; widen the kernel")
	}
	if len(rep.Windows) < 2 {
		t.Fatalf("expected multiple windows, got %d", len(rep.Windows))
	}
	var wc, wi uint64
	for _, w := range rep.Windows {
		wc += w.Cycles
		wi += w.Insts
	}
	if wc != rep.DetailedCycles || wi != rep.DetailedInsts {
		t.Fatalf("window sums (%d cycles, %d insts) disagree with totals (%d, %d)",
			wc, wi, rep.DetailedCycles, rep.DetailedInsts)
	}
	if rep.FFInsts+rep.DetailedInsts > rep.TotalInsts {
		// TotalInsts counts every architectural instruction exactly once;
		// instructions fetched into a window but abandoned at its end are
		// in TotalInsts but in neither phase total, so the phase sums can
		// only undercount.
		t.Fatalf("FF %d + detailed %d > total %d", rep.FFInsts, rep.DetailedInsts, rep.TotalInsts)
	}
	if rep.Coverage <= 0 || rep.Coverage >= 1 {
		t.Fatalf("coverage = %v, want in (0,1)", rep.Coverage)
	}
	if rep.CPI <= 0 {
		t.Fatalf("CPI = %v, want > 0", rep.CPI)
	}
	if !rep.CPICI.Contains(rep.CPI) {
		t.Fatalf("CPI %v outside its own CI %+v", rep.CPI, rep.CPICI)
	}
	sum := rep.Breakdown.Retiring + rep.Breakdown.BadSpec + rep.Breakdown.Frontend + rep.Breakdown.Backend
	if sum < 0.99 || sum > 1.01 {
		t.Fatalf("top-level shares sum to %v, want ~1", sum)
	}
	for _, name := range []string{"Retiring", "BadSpec", "Frontend", "Backend"} {
		if _, ok := rep.CategoryCI[name]; !ok {
			t.Fatalf("CategoryCI missing %s", name)
		}
	}
	if !rep.Halted {
		t.Fatal("program should have halted")
	}
}
