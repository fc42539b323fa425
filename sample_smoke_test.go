// Sampled-simulation smoke: one sampled run per core model at the
// default policy, validating the report's structural invariants
// (instruction conservation, coverage, confidence-interval shape),
// bit-exact determinism across repeated runs, and loose agreement with
// the full-detail run. The tight accuracy bounds live in
// internal/check; this is what `make sample-smoke` (part of `make ci`)
// runs.
package icicle_test

import (
	"testing"

	"icicle/internal/boom"
	"icicle/internal/kernel"
	"icicle/internal/perf"
	"icicle/internal/rocket"
	"icicle/internal/sample"
)

// checkSampleReport asserts the invariants every sampled run must hold
// regardless of policy or workload.
func checkSampleReport(t *testing.T, who string, rep *sample.Report) {
	t.Helper()
	if rep == nil {
		t.Fatalf("%s: nil report", who)
	}
	if !rep.Halted {
		t.Errorf("%s: program did not halt", who)
	}
	if rep.Exact {
		t.Errorf("%s: run degenerated to full detail (kernel too short for the policy)", who)
	}
	if rep.TotalInsts == 0 {
		t.Fatalf("%s: zero instructions", who)
	}
	// Conservation: every instruction ran functionally or in a window,
	// never both (putback-abandon), so the two never exceed the total.
	if rep.FFInsts+rep.DetailedInsts > rep.TotalInsts {
		t.Errorf("%s: FF %d + detailed %d > total %d",
			who, rep.FFInsts, rep.DetailedInsts, rep.TotalInsts)
	}
	if len(rep.Windows) == 0 {
		t.Errorf("%s: no detailed windows", who)
	}
	if rep.Coverage <= 0 || rep.Coverage >= 1 {
		t.Errorf("%s: coverage %.4f outside (0,1)", who, rep.Coverage)
	}
	if !rep.CPICI.Contains(rep.CPI) {
		t.Errorf("%s: CPI %.4f outside its own CI [%.4f,%.4f]",
			who, rep.CPI, rep.CPICI.Lo, rep.CPICI.Hi)
	}
	shares := map[string]float64{
		"Retiring": rep.Breakdown.Retiring,
		"BadSpec":  rep.Breakdown.BadSpec,
		"Frontend": rep.Breakdown.Frontend,
		"Backend":  rep.Breakdown.Backend,
	}
	for name, v := range shares {
		iv, ok := rep.CategoryCI[name]
		if !ok {
			t.Errorf("%s: CategoryCI missing %s", who, name)
			continue
		}
		if !iv.Contains(v) {
			t.Errorf("%s: %s share %.4f outside CI [%.4f,%.4f]",
				who, name, v, iv.Lo, iv.Hi)
		}
	}
}

// sameSampleReport asserts two reports from identical runs are
// bit-identical — sampled simulation must be deterministic.
func sameSampleReport(t *testing.T, who string, a, b *sample.Report) {
	t.Helper()
	if a.EstCycles != b.EstCycles || a.TotalInsts != b.TotalInsts ||
		a.DetailedCycles != b.DetailedCycles || a.DetailedInsts != b.DetailedInsts ||
		a.FFInsts != b.FFInsts || len(a.Windows) != len(b.Windows) {
		t.Fatalf("%s: repeated sampled run diverged: est %d/%d insts %d/%d windows %d/%d",
			who, a.EstCycles, b.EstCycles, a.TotalInsts, b.TotalInsts,
			len(a.Windows), len(b.Windows))
	}
	for i := range a.Tally {
		if a.Tally[i] != b.Tally[i] {
			t.Fatalf("%s: event tally %d diverged: %d vs %d", who, i, a.Tally[i], b.Tally[i])
		}
	}
}

func TestSampleSmoke(t *testing.T) {
	k, err := kernel.ByName("towers")
	if err != nil {
		t.Fatal(err)
	}
	p := sample.Default()

	// Rocket: invariants, determinism, and loose full-detail agreement.
	_, rep, sb, err := perf.Sample(rocket.New(rocket.DefaultConfig(), k.MustProgram()), k, p, sample.Options{})
	if err != nil {
		t.Fatalf("rocket sampled: %v", err)
	}
	checkSampleReport(t, "rocket", rep)
	_, rep2, _, err := perf.Sample(rocket.New(rocket.DefaultConfig(), k.MustProgram()), k, p, sample.Options{})
	if err != nil {
		t.Fatalf("rocket sampled rerun: %v", err)
	}
	sameSampleReport(t, "rocket", rep, rep2)

	full, fb, err := perf.Run(rocket.New(rocket.DefaultConfig(), k.MustProgram()), k)
	if err != nil {
		t.Fatalf("rocket full: %v", err)
	}
	if rep.TotalInsts != full.Insts {
		t.Errorf("rocket: sampled retired %d insts, full %d", rep.TotalInsts, full.Insts)
	}
	cycErr := float64(rep.EstCycles) - float64(full.Cycles)
	if cycErr < 0 {
		cycErr = -cycErr
	}
	if cycErr/float64(full.Cycles) > 0.10 {
		t.Errorf("rocket: cycle estimate %d vs %d (>10%% off)", rep.EstCycles, full.Cycles)
	}
	for _, d := range []float64{
		sb.Retiring - fb.Retiring, sb.BadSpec - fb.BadSpec,
		sb.Frontend - fb.Frontend, sb.Backend - fb.Backend,
	} {
		if d > 0.05 || d < -0.05 {
			t.Errorf("rocket: category share off by %.2fpp (smoke limit 5pp)", 100*d)
		}
	}

	// BOOM: invariants and determinism on the out-of-order model.
	cfg := boom.NewConfig(boom.Large)
	_, brep, _, err := perf.Sample(boom.MustNew(cfg, k.MustProgram()), k, p, sample.Options{})
	if err != nil {
		t.Fatalf("boom sampled: %v", err)
	}
	checkSampleReport(t, cfg.Name, brep)
	_, brep2, _, err := perf.Sample(boom.MustNew(cfg, k.MustProgram()), k, p, sample.Options{})
	if err != nil {
		t.Fatalf("boom sampled rerun: %v", err)
	}
	sameSampleReport(t, cfg.Name, brep, brep2)
}
