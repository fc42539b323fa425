// Command perfbench is the repository benchmark. It runs one named
// workload with a seed for a fixed time, checks every output against
// golden data, prints every metric by name with its unit on standard
// error, writes a host-stamped run record, and prints as the last line of
// standard output one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"<name>": {"value": v, "unit": "u"}, ...}}
//
// With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
// with --trace 1 they are its per-layer metrics, taken from traced
// repetitions (plus untraced ones for the tracing overhead).
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload <paper-suite|sampled-sweep|serve-mix> --seed N --seconds S --trace 0|1
//	bash perfbench/run.sh compare -base a.json[,b.json] -new c.json[,d.json]
//	bash perfbench/run.sh golden
//
// Every repetition runs in a fresh child process, so each starts from the
// same cold state: the process-wide window memo, plan cache and core
// pools cannot carry work from one repetition into the next.
package main

import (
	"bufio"
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

//go:embed metrics.json
var metricsJSON []byte

// metricDef is one metric of metrics.json, which also documents its
// layer, definition and the end-to-end metric it should move.
type metricDef struct {
	Name   string `json:"name"`
	Kind   string `json:"kind"` // end_to_end | per_layer
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func metricDefs() []metricDef {
	var doc struct {
		Metrics []metricDef `json:"metrics"`
	}
	if err := json.Unmarshal(metricsJSON, &doc); err != nil {
		panic("metrics.json: " + err.Error())
	}
	return doc.Metrics
}

// buildDir holds everything the benchmark writes, relative to the
// directory it runs from.
const buildDir = ".bench_build"

// runDeadline bounds a whole run, children included.
const runDeadline = 170 * time.Second

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	ablate   string
	out      string

	// Child-process flags (one repetition).
	child  bool
	traced bool
	rep    int
}

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: paper-suite, sampled-sweep or serve-mix")
	fs.Int64Var(&o.seed, "seed", 1, "seed for the workload's generated inputs")
	fs.IntVar(&o.seconds, "seconds", 20, "measured time of the run")
	trace := fs.Int("trace", 0, "1 prints the per-layer metrics from traced repetitions")
	fs.StringVar(&o.ablate, "ablate", "", "comma-separated ablations: superblocks, stallskip, corepool")
	fs.StringVar(&o.out, "out", "", "run record path (default .bench_build/results/<workload>-seed<n>-trace<t>-<time>.json)")
	fs.BoolVar(&o.child, "child", false, "run one repetition and print its raw result (internal)")
	fs.BoolVar(&o.traced, "traced", false, "child: record spans")
	fs.IntVar(&o.rep, "rep", 0, "child: repetition index")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	o.trace = *trace != 0
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("unknown workload %q (want paper-suite, sampled-sweep or serve-mix)", o.workload)
	}
	if o.seconds < 1 {
		return o, fmt.Errorf("--seconds must be at least 1")
	}
	for _, a := range splitList(o.ablate) {
		if a != "superblocks" && a != "stallskip" && a != "corepool" {
			return o, fmt.Errorf("unknown ablation %q", a)
		}
	}
	return o, nil
}

func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "golden":
			if err := goldenMain(); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench golden:", err)
				os.Exit(1)
			}
			return
		}
	}
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if o.child {
		if err := childMain(o); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(parentMain(o))
}

// repResult is what one child process reports for one repetition.
type repResult struct {
	Traced    bool               `json:"traced"`
	SetupSec  []float64          `json:"setup_sec"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	JobMS     []float64          `json:"job_ms,omitempty"` // batch: per-job walls
	TraceFile string             `json:"trace_file,omitempty"`
	PeakMiB   float64            `json:"peak_rss_mib"` // filled in by the parent
}

// minBatchReps is the fewest repetitions a batch run measures. A
// paper-suite repetition takes 7-14 s on the 2-vCPU reference host, so
// filling --seconds alone measured only two or three of them, and ten
// such runs spread by a quarter of their median (interquartile range).
// A run measures at least four, even when that takes it past --seconds.
const minBatchReps = 4

// moreReps decides whether the run starts another repetition. Batch
// workloads repeat, at least minBatchReps times, while another repetition
// of the average length still fits in the measured time; serve-mix
// spreads its ladder over the time in one repetition of each kind.
func moreReps(w workload, o options, done int, elapsed time.Duration) bool {
	if !w.batch {
		if o.trace {
			return done < 2
		}
		return done < 1
	}
	if done < minBatchReps {
		return true
	}
	avg := elapsed / time.Duration(done)
	return elapsed+avg <= time.Duration(o.seconds)*time.Second*21/20 && done < 64
}

func parentMain(o options) int {
	w := workloads[o.workload]
	stamp := newStamp(o.seed)
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()

	start := time.Now()
	var reps []*repResult
	var problems []string
	for i := 0; moreReps(w, o, i, time.Since(start)); i++ {
		traced := o.trace && i%2 == 1
		r, err := spawn(ctx, o, i, traced)
		if err != nil {
			problems = append(problems, fmt.Sprintf("repetition %d: %v", i, err))
			break
		}
		reps = append(reps, r)
	}

	defs := metricDefs()
	e2e, layer := aggregate(w, reps)
	attempted, failed := 0, 0
	for _, r := range reps {
		attempted += r.Attempted
		failed += r.Failed
		problems = append(problems, r.Problems...)
	}
	if len(problems) > 0 && failed == 0 {
		failed = 1 // a repetition that crashed or broke the cold-state plan
	}
	if attempted < 1 {
		attempted = 1
	}
	correct := len(problems) == 0 && failed == 0

	kind, values := "end_to_end", e2e
	if o.trace {
		kind, values = "per_layer", layer
	}
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	printed := map[string]valueUnit{}
	for _, d := range defs {
		if d.Kind == kind {
			printed[d.Name] = valueUnit{finite(values[d.Name]), d.Unit}
		}
	}

	rec := record{
		Stamp: stamp, Workload: o.workload, Seed: o.seed, Seconds: o.seconds,
		Trace: o.trace, Ablate: o.ablate, Correct: correct,
		Attempted: attempted, Failed: failed, Problems: problems,
		EndToEnd: finiteMap(e2e), PerLayer: finiteMap(layer), Reps: reps,
	}
	path, err := rec.write(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing run record:", err)
	}
	printReport(os.Stderr, rec, defs, path)

	// Plain types and finite values: Marshal cannot fail.
	line, _ := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{correct, attempted, failed, printed})
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

// spawn runs one repetition in a child process and returns its result
// with the child's peak resident memory.
func spawn(ctx context.Context, o options, rep int, traced bool) (*repResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"--child", "--workload", o.workload,
		"--seed", strconv.FormatInt(o.seed, 10), "--seconds", strconv.Itoa(o.seconds),
		"--rep", strconv.Itoa(rep), "--traced=" + strconv.FormatBool(traced),
		"--trace", map[bool]string{false: "0", true: "1"}[o.trace]}
	if o.ablate != "" {
		args = append(args, "--ablate", o.ablate)
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	r, err := lastJSONLine(stdout.Bytes())
	if err != nil {
		return nil, err
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.PeakMiB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return r, nil
}

func lastJSONLine(out []byte) (*repResult, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		if l := bytes.TrimSpace(sc.Bytes()); len(l) > 0 {
			last = append(last[:0], l...)
		}
	}
	if len(last) == 0 {
		return nil, errors.New("child printed no result")
	}
	var r repResult
	if err := json.Unmarshal(last, &r); err != nil {
		return nil, fmt.Errorf("child result: %w", err)
	}
	return &r, nil
}

// untracedLayer lists the per-layer metrics that describe the workload's
// outcome rather than a layer's cost, so they are read from the
// untraced repetitions like the end-to-end metrics.
var untracedLayer = map[string]bool{
	"load.p50_ms_low": true, "load.p99_ms_low": true,
	"load.p50_ms_mid": true, "load.p99_ms_mid": true,
	"load.p50_ms_high": true, "load.p99_ms_high": true,
	"load.max_ok_rps": true,
}

// aggregate reduces the repetitions to one value per metric: medians
// over repetitions, with batch latencies pooled over repetitions first.
func aggregate(w workload, reps []*repResult) (e2e, layer map[string]float64) {
	var untraced, traced []*repResult
	var setups []float64
	for _, r := range reps {
		setups = append(setups, r.SetupSec...)
		if r.Traced {
			traced = append(traced, r)
		} else {
			untraced = append(untraced, r)
		}
	}
	med := func(rs []*repResult, name string) float64 {
		var xs []float64
		for _, r := range rs {
			xs = append(xs, r.Metrics[name])
		}
		return median(xs)
	}
	e2e = map[string]float64{
		"setup_s":     median(setups),
		"minst_per_s": med(untraced, "minst_per_s"),
	}
	var rss []float64
	for _, r := range untraced {
		rss = append(rss, r.PeakMiB)
	}
	e2e["peak_rss_mib"] = median(rss)
	if w.batch {
		var pooled []float64
		for _, r := range untraced {
			pooled = append(pooled, r.JobMS...)
		}
		e2e["p50_ms"] = quantile(pooled, 0.50)
	} else {
		e2e["p50_ms"] = med(untraced, "p50_ms")
	}

	layer = map[string]float64{}
	for _, d := range metricDefs() {
		if d.Kind != "per_layer" {
			continue
		}
		src := traced
		if untracedLayer[d.Name] {
			src = untraced
		}
		layer[d.Name] = med(src, d.Name)
	}
	// Tracing overhead: how much worse the traced repetitions' headline
	// result is than the untraced ones'.
	if len(traced) > 0 && len(untraced) > 0 {
		if w.batch {
			layer["obs.trace_overhead_pct"] = (ratio(med(untraced, "minst_per_s"), med(traced, "minst_per_s")) - 1) * 100
		} else {
			layer["obs.trace_overhead_pct"] = (ratio(med(traced, "p50_ms"), med(untraced, "p50_ms")) - 1) * 100
		}
	}
	return e2e, layer
}

func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

func finiteMap(m map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, v := range m {
		out[k] = finite(v)
	}
	return out
}

// printReport writes the human-readable summary: every metric by name
// with its unit, the per-layer self times and the host stamp.
func printReport(w io.Writer, rec record, defs []metricDef, path string) {
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%d trace=%v: %d repetitions, %d attempted, %d failed, correct=%v\n",
		rec.Workload, rec.Seed, rec.Seconds, rec.Trace, len(rec.Reps), rec.Attempted, rec.Failed, rec.Correct)
	fmt.Fprintf(w, "  host: %s\n", rec.Stamp)
	for _, p := range rec.Problems {
		fmt.Fprintf(w, "  FAIL: %s\n", p)
	}
	for _, kind := range []string{"end_to_end", "per_layer"} {
		vals := rec.EndToEnd
		if kind == "per_layer" {
			if !rec.Trace {
				continue
			}
			vals = rec.PerLayer
		}
		fmt.Fprintf(w, "  %s:\n", kind)
		for _, d := range defs {
			if d.Kind == kind {
				fmt.Fprintf(w, "    %-30s %14.4f %s\n", d.Name, vals[d.Name], d.Unit)
			}
		}
	}
	if len(rec.Reps) > 0 {
		var traces []string
		for _, r := range rec.Reps {
			if r.TraceFile != "" {
				traces = append(traces, r.TraceFile)
			}
		}
		sort.Strings(traces)
		for _, t := range traces {
			fmt.Fprintf(w, "  trace: %s\n", t)
		}
	}
	if path != "" {
		fmt.Fprintf(w, "  record: %s\n", path)
	}
}

// workDir returns a fresh scratch directory under the build directory.
func workDir(name string) (string, error) {
	dir := filepath.Join(buildDir, "work", fmt.Sprintf("%s-%d", name, os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
