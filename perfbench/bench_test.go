package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"testing"
)

// TestMain lets the tests run the benchmark itself: with PERFBENCH_EXEC
// set, the test binary is the benchmark (and spawns itself as the
// children of the run).
func TestMain(m *testing.M) {
	if os.Getenv("PERFBENCH_EXEC") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestBenchmarkJSON checks that BENCHMARK.json lists exactly the metrics
// documented in metrics.json, with the same units and directions, and
// the workloads with the same reasons.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var bench struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
	}
	if err := json.Unmarshal(metricsJSON, &doc); err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) != len(doc.Workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, metrics.json %d", len(bench.Workloads), len(doc.Workloads))
	}
	for i, w := range bench.Workloads {
		if w != doc.Workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json %+v, metrics.json %+v", i, w, doc.Workloads[i])
		}
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
	listed := map[string][]metric{"end_to_end": bench.EndToEnd, "per_layer": bench.PerLayer}
	next := map[string]int{}
	for _, d := range metricDefs() {
		ms := listed[d.Kind]
		i := next[d.Kind]
		next[d.Kind]++
		if i >= len(ms) {
			t.Errorf("%s %s missing from BENCHMARK.json", d.Kind, d.Name)
			continue
		}
		m := ms[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("%s %d: BENCHMARK.json %+v, metrics.json %s %s %s", d.Kind, i, m, d.Name, d.Unit, d.Better)
		}
		if (d.Kind == "end_to_end") != (m.Bound != nil) {
			t.Errorf("%s: bound only on end-to-end metrics", d.Name)
		}
		if m.Bound != nil && (*m.Bound <= 0 || *m.Bound > 0.25) {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, *m.Bound)
		}
	}
	for kind, ms := range listed {
		if next[kind] != len(ms) {
			t.Errorf("BENCHMARK.json lists %d %s metrics, metrics.json %d", len(ms), kind, next[kind])
		}
	}
}

func TestCompareRefusesOtherHosts(t *testing.T) {
	a := record{Stamp: stamp{CPUModel: "A", NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0"}, Workload: "serve-mix"}
	for _, change := range []func(*stamp){
		func(s *stamp) { s.CPUModel = "B" },
		func(s *stamp) { s.NProc = 4 },
		func(s *stamp) { s.GOMAXPROCS = 1 },
		func(s *stamp) { s.GoVersion = "go1.22.0" },
	} {
		b := a
		change(&b.Stamp)
		if got := compareRecords([]record{a}, []record{b}); got != 2 {
			t.Errorf("compare %+v with %+v: exit %d, want 2 (refused)", a.Stamp, b.Stamp, got)
		}
	}
}

// run executes one benchmark run in a scratch directory and returns its
// record.
func run(t *testing.T, workload string, seconds int, trace bool, ablate string) record {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	out := filepath.Join(dir, "record.json")
	tr := "0"
	if trace {
		tr = "1"
	}
	cmd := exec.Command(exe, "--workload", workload, "--seed", "1", "--seconds", strconv.Itoa(seconds),
		"--trace", tr, "--ablate", ablate, "--out", out)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "PERFBENCH_EXEC=1")
	if b, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("%s (ablate %q): %v\n%s", workload, ablate, err, b)
	}
	rec, err := readRecord(out)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Correct {
		t.Fatalf("%s (ablate %q) incorrect: %v", workload, ablate, rec.Problems)
	}
	return rec
}

// ab runs the workload rounds times alternating the baseline and the
// ablation, so both sides see the same host conditions.
func ab(t *testing.T, workload string, seconds int, trace bool, ablate string, rounds int) (base, abl []record) {
	for i := 0; i < rounds; i++ {
		base = append(base, run(t, workload, seconds, trace, ""))
		abl = append(abl, run(t, workload, seconds, trace, ablate))
	}
	return base, abl
}

// values pools one metric over the records' repetitions; span-based
// metrics exist only in traced repetitions.
func values(recs []record, name string, tracedOnly bool) []float64 {
	var out []float64
	for _, r := range recs {
		for _, rep := range r.Reps {
			if rep.Traced || !tracedOnly {
				out = append(out, rep.Metrics[name])
			}
		}
	}
	return out
}

// TestSensitivity flips the public ablation switches and checks that the
// predicted layer and end-to-end metrics move, in the predicted
// direction, on the predicted workload. Timing metrics are compared as
// medians over alternated runs: on the 2-vCPU reference host single
// repetitions spread by ±15%.
func TestSensitivity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark several times")
	}
	const (
		rise = +1
		fall = -1
		same = 0 // within a factor of 1.5
		zero = 2 // ablated value exactly 0, baseline above 0
	)
	type move struct {
		metric     string
		tracedOnly bool
		want       int
	}
	check := func(t *testing.T, base, abl []record, moves []move) {
		t.Helper()
		for _, mv := range moves {
			bs, as := values(base, mv.metric, mv.tracedOnly), values(abl, mv.metric, mv.tracedOnly)
			b, a := median(bs), median(as)
			t.Logf("%s %s: median %.4f -> %.4f (%d and %d repetitions)", base[0].Workload, mv.metric, b, a, len(bs), len(as))
			ok := true
			switch mv.want {
			case rise:
				ok = a > b
			case fall:
				ok = a < b
			case same:
				ok = a <= 1.5*b && b <= 1.5*a
			case zero:
				ok = b > 0 && quantile(as, 1) == 0
			}
			if !ok {
				t.Errorf("%s on %s: %.4f -> %.4f, not the predicted move", mv.metric, base[0].Workload, b, a)
			}
		}
	}

	t.Run("superblocks", func(t *testing.T) {
		base, abl := ab(t, "sampled-sweep", 8, true, "superblocks", 3)
		check(t, base, abl, []move{
			{"isa.sb_hit_ratio", false, zero},
			{"isa.ff_ns_per_inst", true, rise},
			{"isa.self_ms", true, rise},
			{"minst_per_s", false, fall},
		})
		base, abl = ab(t, "serve-mix", 6, false, "superblocks", 1)
		check(t, base, abl, []move{{"serve.hit.p50_ms", false, same}})
	})

	base, abl := ab(t, "paper-suite", 1, true, "stallskip", 2)
	t.Run("stallskip", func(t *testing.T) {
		check(t, base, abl, []move{
			{"rocket.skip_frac", false, zero},
			{"boom.skip_frac", false, zero},
			{"boom.large.ns_per_inst", false, rise},
			{"minst_per_s", false, fall},
		})
		// Logged, not asserted: Rocket skips only ~7% of its paper-suite
		// cycles, so its per-instruction cost moves within the host's
		// noise; and time per active cycle is not expected to rise, since
		// without skipping every cycle counts as active and the quiet
		// cycles the skip path jumped over are cheap to step.
		for _, mv := range []move{{"rocket.ns_per_inst", false, 0}, {"rocket.ns_per_active_cycle", true, 0}, {"boom.ns_per_active_cycle", true, 0}} {
			t.Logf("paper-suite %s: median %.4f -> %.4f", mv.metric,
				median(values(base, mv.metric, mv.tracedOnly)), median(values(abl, mv.metric, mv.tracedOnly)))
		}
	})
	t.Run("corepool", func(t *testing.T) {
		check(t, base[:1], []record{run(t, "paper-suite", 1, true, "corepool")}, []move{
			{"sim.core_reuse_ratio", false, zero},
		})
	})
}
