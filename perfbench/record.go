package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// stamp identifies the host and toolchain a result was measured on.
// Results are only comparable when everything but the seed and the time
// agrees.
type stamp struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Seed       int64  `json:"seed"`
	Time       string `json:"time"`
}

func newStamp(seed int64) stamp {
	return stamp{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Seed:       seed,
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
}

func (s stamp) String() string {
	return fmt.Sprintf("%s, nproc=%d, GOMAXPROCS=%d, %s, seed=%d",
		s.CPUModel, s.NProc, s.GOMAXPROCS, s.GoVersion, s.Seed)
}

// sameHost reports why two stamps are not comparable ("" when they are).
func (s stamp) sameHost(o stamp) string {
	switch {
	case s.CPUModel != o.CPUModel:
		return fmt.Sprintf("CPU model %q vs %q", s.CPUModel, o.CPUModel)
	case s.NProc != o.NProc:
		return fmt.Sprintf("nproc %d vs %d", s.NProc, o.NProc)
	case s.GOMAXPROCS != o.GOMAXPROCS:
		return fmt.Sprintf("GOMAXPROCS %d vs %d", s.GOMAXPROCS, o.GOMAXPROCS)
	case s.GoVersion != o.GoVersion:
		return fmt.Sprintf("Go %s vs %s", s.GoVersion, o.GoVersion)
	}
	return ""
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// record is the run record written next to every run: the stamp, all
// metrics (both kinds) and the raw repetitions.
type record struct {
	Stamp     stamp              `json:"stamp"`
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   int                `json:"seconds"`
	Trace     bool               `json:"trace"`
	Ablate    string             `json:"ablate,omitempty"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer"`
	Reps      []*repResult       `json:"repetitions"`
}

func (r record) write(o options) (string, error) {
	path := o.out
	if path == "" {
		t := 0
		if r.Trace {
			t = 1
		}
		path = filepath.Join(buildDir, "results", fmt.Sprintf("%s-seed%d-trace%d-%s.json",
			r.Workload, r.Seed, t, time.Now().UTC().Format("20060102T150405.000")))
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}

func readRecord(path string) (record, error) {
	var r record
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// bounds reads the end-to-end regression bounds from BENCHMARK.json in
// the current directory.
func bounds() (map[string]float64, error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	out := map[string]float64{}
	for _, m := range doc.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}

// compareMain compares the medians of two sets of untraced run records
// of one workload metric by metric against the BENCHMARK.json bounds.
// It refuses (exit 2) to compare records from different hosts, workloads
// or ablations, and exits 1 when a metric got worse by more than its
// bound.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	base := fs.String("base", "", "comma-separated run records of the baseline")
	next := fs.String("new", "", "comma-separated run records of the change")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	load := func(list string) ([]record, error) {
		var out []record
		for _, p := range splitList(list) {
			r, err := readRecord(p)
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
		if len(out) == 0 {
			return nil, fmt.Errorf("no run records given")
		}
		return out, nil
	}
	bs, err := load(*base)
	if err == nil {
		var ns []record
		ns, err = load(*next)
		if err == nil {
			return compareRecords(bs, ns)
		}
	}
	fmt.Fprintln(os.Stderr, "perfbench compare:", err)
	return 2
}

func compareRecords(bs, ns []record) int {
	ref := bs[0]
	for _, r := range append(append([]record(nil), bs...), ns...) {
		if why := ref.Stamp.sameHost(r.Stamp); why != "" {
			fmt.Fprintf(os.Stderr, "perfbench compare: refusing to compare results from different hosts: %s\n", why)
			return 2
		}
		if r.Workload != ref.Workload || r.Ablate != ref.Ablate || r.Trace || ref.Trace {
			fmt.Fprintln(os.Stderr, "perfbench compare: records must be untraced runs of one workload with the same ablations")
			return 2
		}
	}
	bnd, err := bounds()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	regressed := false
	fmt.Printf("%s: %d baseline vs %d new records on %s\n", ref.Workload, len(bs), len(ns), ref.Stamp)
	for _, d := range metricDefs() {
		if d.Kind != "end_to_end" {
			continue
		}
		med := func(rs []record) float64 {
			var xs []float64
			for _, r := range rs {
				xs = append(xs, r.EndToEnd[d.Name])
			}
			return median(xs)
		}
		b, n := med(bs), med(ns)
		worse := ratio(n-b, b)
		if d.Better == "higher" {
			worse = -worse
		}
		verdict := "ok"
		if worse > bnd[d.Name] {
			verdict = "REGRESSED"
			regressed = true
		}
		fmt.Printf("  %-14s %12.4f -> %12.4f %-8s worse by %+7.2f%% (bound %.0f%%) %s\n",
			d.Name, b, n, d.Unit, worse*100, bnd[d.Name]*100, verdict)
	}
	if regressed {
		return 1
	}
	return 0
}
