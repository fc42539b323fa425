package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"icicle/internal/boom"
	"icicle/internal/isa"
	"icicle/internal/obs"
	"icicle/internal/rocket"
	"icicle/internal/sim"
)

// workload is one named benchmark workload: a repetition (run in a child
// process) and the generator of its golden data.
type workload struct {
	batch  bool // closed-loop batch; otherwise one open-loop ladder per repetition
	rep    func(c *repCtx) error
	golden func() (golden, error)
}

var workloads = map[string]workload{
	"paper-suite":   {batch: true, rep: paperSuiteRep, golden: paperSuiteGolden},
	"sampled-sweep": {batch: true, rep: sampledSweepRep, golden: sampledSweepGolden},
	"serve-mix":     {batch: false, rep: serveMixRep, golden: serveMixGolden},
}

// benchTid is the trace track of the benchmark's own spans, clear of the
// runner's worker tracks and the experiments' phase track (99).
const benchTid = 98

// repCtx carries one repetition's settings and collects its result.
type repCtx struct {
	o   options
	tr  *obs.Tracer // nil when untraced
	g   golden      // expected outputs
	rec golden      // outputs collected while regenerating golden data (nil otherwise)
	res *repResult
	obs observation
}

func newRepCtx(o options, g golden) *repCtx {
	c := &repCtx{
		o:   o,
		g:   g,
		res: &repResult{Traced: o.traced, Metrics: map[string]float64{}},
	}
	for _, d := range metricDefs() {
		c.res.Metrics[d.Name] = 0
	}
	return c
}

// fail records a failed operation: an error, a wrong output or a result
// served from the wrong source.
func (c *repCtx) fail(format string, args ...any) {
	c.res.Failed++
	c.problem(format, args...)
}

// problem records a run-level failure that is not one operation.
func (c *repCtx) problem(format string, args ...any) {
	if len(c.res.Problems) < 20 {
		c.res.Problems = append(c.res.Problems, fmt.Sprintf(format, args...))
	}
}

// expect checks an output against the golden data, or records it while
// the golden data is being regenerated.
func (c *repCtx) expect(section, id, value, what string) {
	if c.rec != nil {
		c.rec.set(section, id, value)
		return
	}
	want, ok := c.g.get(section, id)
	switch {
	case !ok:
		c.fail("%s: not in the golden %s data", what, section)
	case want != value:
		c.fail("%s: %s %s, golden %s", what, section, value, want)
	}
}

func (c *repCtx) ablated(name string) bool {
	for _, a := range splitList(c.o.ablate) {
		if a == name {
			return true
		}
	}
	return false
}

// workers is the size of every pool the benchmark drives: runner
// workers, sampled window workers, server queue workers and requests in
// flight. It is below nproc on purpose: on the 2-vCPU reference host a
// second busy thread depends on how loaded the sibling vCPU is; it gave
// sampled-sweep runs an IQR/median of 0.28 against 0.16 with one thread
// (five alternated pairs of runs).
const workers = 1

// runnerOpts are the runner options every workload starts from: the
// worker count, the per-job log, and the core-pool ablation.
func (c *repCtx) runnerOpts() []sim.Option {
	opts := []sim.Option{sim.WithWorkers(workers), sim.WithJobCallback(c.obs.logJob)}
	if c.ablated("corepool") {
		opts = append(opts, sim.WithoutCorePool())
	}
	return opts
}

// span opens one of the benchmark's own spans around a call into the
// program (a no-op when untraced).
func (c *repCtx) span(name string) func() {
	sp := c.tr.Begin(name, "bench", benchTid)
	return func() { sp.End() }
}

func childMain(o options) error {
	if o.ablate != "" {
		for _, a := range splitList(o.ablate) {
			switch a {
			case "superblocks":
				isa.DefaultSuperblocks = false
			case "stallskip":
				rocket.DefaultStallSkip = false
				boom.DefaultStallSkip = false
			}
		}
	}
	g, err := loadGolden(o.workload)
	if err != nil {
		return err
	}
	c := newRepCtx(o, g)
	if o.traced {
		c.tr = obs.EnableTracing()
		c.tr.NameThread(benchTid, "bench")
	}
	if err := workloads[o.workload].rep(c); err != nil {
		return err
	}
	if err := c.finish(); err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(c.res)
}

// finish derives the runner-level per-layer metrics and, when traced,
// writes the spans and derives the span-based ones.
func (c *repCtx) finish() error {
	var spans *spanSet
	if c.tr != nil {
		path := filepath.Join(buildDir, "traces",
			fmt.Sprintf("%s-seed%d-rep%d.trace.json", c.o.workload, c.o.seed, c.o.rep))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		werr := c.tr.WriteJSON(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fmt.Errorf("writing trace: %w", werr)
		}
		c.res.TraceFile = path
		if spans, err = loadSpans(path, c.obs.lo, c.obs.hi); err != nil {
			return err
		}
	}
	c.obs.layers(c.res.Metrics, spans)
	return nil
}

// observation is what a workload's measured phase leaves for the
// runner-level layer metrics.
type observation struct {
	mu   sync.Mutex
	jobs []jobRecord // every job the runner completed, via sim.WithJobCallback
	from int         // jobs before this index belong to set-up

	lo, hi float64 // the measured phase in trace microseconds

	stats sim.Stats    // runner counters over the measured phase
	ctr   *obs.Scraped // registry counters over the measured phase
	alloc uint64       // heap bytes allocated in the measured phase
	gcs   uint64       // GC cycles completed in the measured phase
}

type jobRecord struct {
	res  sim.Result
	wall time.Duration
}

func (o *observation) logJob(res sim.Result, wall time.Duration) {
	o.mu.Lock()
	o.jobs = append(o.jobs, jobRecord{res, wall})
	o.mu.Unlock()
}

// measured returns the jobs completed in the measured phase.
func (o *observation) measured() []jobRecord {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]jobRecord(nil), o.jobs[o.from:]...)
}

// phase brackets a measured phase: wall time, heap allocation and GC
// deltas, runner counters and a registry scrape delta.
type phase struct {
	o      *observation
	tr     *obs.Tracer
	runner *sim.Runner
	scrape func() (*obs.Scraped, error)
	start  time.Time
	ms     runtime.MemStats
	st     sim.Stats
	before *obs.Scraped
}

func (c *repCtx) startPhase(runner *sim.Runner, scrape func() (*obs.Scraped, error)) (*phase, error) {
	o := &c.obs
	p := &phase{o: o, tr: c.tr, runner: runner, scrape: scrape}
	var err error
	if p.before, err = scrape(); err != nil {
		return nil, fmt.Errorf("scraping metrics: %w", err)
	}
	p.st = runner.Stats()
	o.mu.Lock()
	o.from = len(o.jobs)
	o.mu.Unlock()
	runtime.ReadMemStats(&p.ms)
	p.start = time.Now()
	o.lo = p.tr.US(p.start)
	return p, nil
}

// stop ends the phase and returns its wall time.
func (p *phase) stop() (time.Duration, error) {
	end := time.Now()
	wall := end.Sub(p.start)
	p.o.hi = p.tr.US(end)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	after, err := p.scrape()
	if err != nil {
		return wall, fmt.Errorf("scraping metrics: %w", err)
	}
	p.o.alloc = ms.TotalAlloc - p.ms.TotalAlloc
	p.o.gcs = uint64(ms.NumGC - p.ms.NumGC)
	p.o.ctr = after.Delta(p.before)
	p.o.stats = statsDelta(p.runner.Stats(), p.st)
	return wall, nil
}

func statsDelta(a, b sim.Stats) sim.Stats {
	return sim.Stats{
		Workers:      a.Workers,
		Jobs:         a.Jobs - b.Jobs,
		Hits:         a.Hits - b.Hits,
		Misses:       a.Misses - b.Misses,
		CoreBuilds:   a.CoreBuilds - b.CoreBuilds,
		CoreReuses:   a.CoreReuses - b.CoreReuses,
		WindowHits:   a.WindowHits - b.WindowHits,
		WindowMisses: a.WindowMisses - b.WindowMisses,
		StoreHits:    a.StoreHits - b.StoreHits,
		StoreMisses:  a.StoreMisses - b.StoreMisses,
	}
}

// layers derives the per-layer metrics of the runner and the engines
// below it from the measured phase's jobs, counters and (when traced)
// spans.
func (o *observation) layers(m map[string]float64, spans *spanSet) {
	var rocketNS, rocketInsts float64
	boomNS, boomInsts := map[string]float64{}, map[string]float64{}
	lookups := 0
	plans := map[string]float64{} // kernel|schedule → instructions of the plan
	for _, j := range o.measured() {
		r := j.res
		if r.Cached || r.Err != nil {
			continue
		}
		switch {
		case r.Job.Sample.Enabled():
			if r.Job.SamplePar > 0 {
				lookups++
				plans[r.Job.Kernel.Name+"|"+r.Job.Sample.ScheduleKey()] = float64(r.Insts())
			}
		case r.Job.Core == sim.Boom:
			size := strings.ToLower(strings.TrimSuffix(r.Job.Boom.Name, "BOOM"))
			boomNS[size] += float64(j.wall)
			boomInsts[size] += float64(r.Insts())
		default:
			rocketNS += float64(j.wall)
			rocketInsts += float64(r.Insts())
		}
	}
	m["rocket.ns_per_inst"] = ratio(rocketNS, rocketInsts)
	for _, s := range []string{"small", "medium", "large", "mega", "giga"} {
		m["boom."+s+".ns_per_inst"] = ratio(boomNS[s], boomInsts[s])
	}

	ctr := o.ctr
	rc := ctr.Value("icicle_rocket_cycles_simulated_total")
	rs := ctr.Value(`icicle_core_skipped_cycles_total{core="rocket"}`)
	bc := ctr.Value("icicle_boom_cycles_simulated_total")
	bs := ctr.Value(`icicle_core_skipped_cycles_total{core="boom"}`)
	m["rocket.skip_frac"] = ratio(rs, rc)
	m["boom.skip_frac"] = ratio(bs, bc)
	sbHits := ctr.Value("icicle_isa_superblock_hits_total")
	m["isa.sb_hit_ratio"] = ratio(sbHits, sbHits+ctr.Value("icicle_isa_superblock_misses_total"))
	m["sample.windows"] = ctr.Value("icicle_sample_windows_total")

	st := o.stats
	m["sample.window_memo_hit_ratio"] = ratio(float64(st.WindowHits), float64(st.WindowHits+st.WindowMisses))
	m["sim.memo_hit_ratio"] = ratio(float64(st.Hits), float64(st.Jobs))
	m["sim.core_reuse_ratio"] = ratio(float64(st.CoreReuses), float64(st.CoreBuilds+st.CoreReuses))
	m["sim.alloc_kib_per_job"] = ratio(float64(o.alloc)/1024, float64(st.Misses))
	m["sim.gc_cycles"] = float64(o.gcs)

	if spans == nil {
		return
	}
	planUS := spans.durs("plan-produce")
	var planInsts float64
	for _, n := range plans {
		planInsts += n
	}
	m["isa.ff_ns_per_inst"] = ratio(sum(planUS)*1e3, planInsts)
	m["sample.plan_ms"] = mean(planUS) / 1e3
	if lookups > 0 {
		m["perf.plan_cache_hit_ratio"] = 1 - float64(len(planUS))/float64(lookups)
	}
	win := spans.durs("window")
	m["sample.window_us.p50"] = quantile(win, 0.5)
	m["sample.window_us.p90"] = quantile(win, 0.9)
	m["sample.warmup_ns_per_inst"] = ratio(sum(spans.durs("warm-up"))*1e3, ctr.Value("icicle_sample_warmup_replays_total"))
	m["sample.window_wait_ms"] = mean(spans.asyncUS["sample-queue"]) / 1e3
	m["perf.tally_us"] = mean(spans.durs("tally"))
	m["sim.acquire_us"] = mean(spans.durs("acquire-core"))
	q := spans.asyncUS["queue"]
	m["sim.queue_wait_ms.p50"] = quantile(q, 0.5) / 1e3
	m["sim.queue_wait_ms.p99"] = quantile(q, 0.99) / 1e3
	simUS := spans.simulateByCore()
	m["rocket.ns_per_active_cycle"] = ratio(simUS["rocket"]*1e3, rc-rs)
	m["boom.ns_per_active_cycle"] = ratio(simUS["boom"]*1e3, bc-bs)
	for layer, ms := range spans.selfByLayer() {
		if _, ok := m[layer+".self_ms"]; ok {
			m[layer+".self_ms"] = ms
		}
	}
}
