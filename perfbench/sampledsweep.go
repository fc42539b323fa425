package main

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"time"

	"icicle/internal/boom"
	"icicle/internal/kernel"
	"icicle/internal/obs"
	"icicle/internal/perf"
	"icicle/internal/rocket"
	"icicle/internal/sample"
	"icicle/internal/sim"
)

// sweepPolicies are the sampled-sweep's policies. The first two share a
// sampling schedule, so their jobs share plans (the plan cache's hits);
// the third has its own, denser schedule.
var sweepPolicies = []sample.Policy{
	sample.Default(),
	{Window: 1024, Period: 49152, Warmup: 16384},
	{Window: 2048, Period: 16384, Warmup: 4096},
}

// Generated programs: the seed picks genPerStrategy of the first
// genPoolSeeds seeds of every internal/kernel strategy, so the golden data
// can cover every program any seed can choose.
const (
	genPoolSeeds   = 8
	genPerStrategy = 2
)

// genKernel is one generated strategy program. Its expected exit is the
// golden data's (0 while the golden data is being generated).
func genKernel(s kernel.Strategy, seed int64, g golden) *kernel.Kernel {
	k := &kernel.Kernel{
		Name:        fmt.Sprintf("gen-%s-%d", s.Name, seed),
		Description: "generated " + s.Name + " program",
		Category:    "generated",
		Source:      s.Program(seed),
	}
	if v, ok := g.get("exit", k.Name); ok {
		k.Expected, _ = strconv.ParseUint(v, 0, 64)
	}
	return k
}

// sweepKernels is every registered kernel plus the generated programs:
// the seed's picks, or the whole pool when seed < 0.
func sweepKernels(seed int64, g golden) []*kernel.Kernel {
	ks := kernel.All()
	rng := rand.New(rand.NewSource(seed))
	for _, s := range kernel.Strategies {
		picks := rng.Perm(genPoolSeeds)
		if seed >= 0 {
			picks = picks[:genPerStrategy]
		}
		for _, p := range picks {
			ks = append(ks, genKernel(s, int64(p+1), g))
		}
	}
	return ks
}

func sweepCores() []sim.Job {
	return []sim.Job{{Core: sim.Rocket, Rocket: rocket.DefaultConfig()}, {Core: sim.Boom, Boom: boom.NewConfig(boom.Large)}}
}

// fullKey is the key of a job's full-detail counterpart, under which
// the golden data keeps its reference cycles.
func fullKey(j sim.Job) string {
	j.Sample, j.SamplePar = sample.Policy{}, 0
	return j.Key()
}

func sweepJobs(ks []*kernel.Kernel, workers int) []sim.Job {
	var jobs []sim.Job
	for _, k := range ks {
		for _, core := range sweepCores() {
			core.Kernel = k
			for _, p := range sweepPolicies {
				jobs = append(jobs, core.WithParallelSampling(p, workers))
			}
		}
	}
	return jobs
}

// sampledSweepRep runs the sweep once through a fresh runner, checks every
// report against the golden data and measures the estimates' cycle error
// against the golden full-detail cycles.
func sampledSweepRep(c *repCtx) error {
	t0 := time.Now()
	ks := sweepKernels(c.o.seed, c.g)
	for _, k := range ks {
		if _, err := k.Program(); err != nil {
			return err
		}
	}
	jobs := sweepJobs(ks, workers)
	reg := obs.NewRegistry()
	runner := sim.New(append(c.runnerOpts(), sim.WithMetricsRegistry(reg), sim.WithTracer(c.tr))...)
	c.res.SetupSec = []float64{time.Since(t0).Seconds()}
	return c.runSweep(runner, reg, jobs)
}

func (c *repCtx) runSweep(runner *sim.Runner, reg *obs.Registry, jobs []sim.Job) error {
	ph, err := c.startPhase(runner, func() (*obs.Scraped, error) { return obs.ScrapeRegistry(reg) })
	if err != nil {
		return err
	}
	end := c.span("sweep")
	results := runner.Run(jobs)
	end()
	wall, err := ph.stop()
	if err != nil {
		return err
	}

	var insts float64
	var errPct []float64
	for _, r := range results {
		k := r.Job.Kernel
		what := fmt.Sprintf("%s on %s under %s", k.Name, r.Job.CoreName(), r.Job.Sample)
		c.res.Attempted++
		if r.Err != nil {
			c.fail("%s: %v", what, r.Err)
			continue
		}
		if k.Expected != 0 && r.Exit() != k.Expected {
			c.fail("%s: exit %#x, want %#x", what, r.Exit(), k.Expected)
		}
		insts += float64(r.Insts())
		c.expect("sampled", hk(r.Job.Key()), resultDigest(r), what)
		if v, ok := c.g.get("full_cycles", hk(fullKey(r.Job))); ok {
			full, _ := strconv.ParseFloat(v, 64)
			errPct = append(errPct, math.Abs(float64(r.Cycles())-full)/full*100)
		} else if c.rec == nil {
			c.fail("%s: no golden full-detail cycles", what)
		}
	}
	for _, j := range c.obs.measured() {
		c.res.JobMS = append(c.res.JobMS, float64(j.wall)/1e6)
	}
	// Cold state: every job key and window is distinct, so a repetition
	// that starts cold simulates everything and hits no memo.
	st := c.obs.stats
	if st.Hits != 0 || st.Misses != uint64(len(jobs)) || st.WindowHits != 0 {
		c.problem("cold state violated: %d memo hits, %d of %d jobs simulated, %d window memo hits (want 0, all, 0)",
			st.Hits, st.Misses, len(jobs), st.WindowHits)
	}
	c.res.Metrics["minst_per_s"] = insts / wall.Seconds() / 1e6
	c.res.Metrics["sample.cycles_err_pct"] = mean(errPct)
	return nil
}

// sampledSweepGolden records the full-detail reference (cycles and exit)
// of every kernel any seed can pick, then every sampled report.
func sampledSweepGolden() (golden, error) {
	g := golden{}
	ks := sweepKernels(-1, nil)
	var full []sim.Job
	for _, k := range ks {
		for _, core := range sweepCores() {
			core.Kernel = k
			full = append(full, core)
		}
	}
	for i, r := range sim.New(sim.WithWorkers(2)).Run(full) {
		if r.Err != nil {
			return nil, fmt.Errorf("%s: %w", r.Job.Key(), r.Err)
		}
		g.set("full_cycles", hk(full[i].Key()), strconv.FormatUint(r.Cycles(), 10))
		k := r.Job.Kernel
		if k.Category != "generated" {
			continue
		}
		plan, err := perf.PlanFor(k, sample.Default(), sample.Options{})
		if err != nil {
			return nil, err
		}
		if r.Exit() != plan.Exit {
			return nil, fmt.Errorf("%s: detailed exit %#x != functional exit %#x", k.Name, r.Exit(), plan.Exit)
		}
		g.set("exit", k.Name, fmt.Sprintf("%#x", r.Exit()))
	}
	c := newRepCtx(options{workload: "sampled-sweep"}, g)
	c.rec = g
	reg := obs.NewRegistry()
	runner := sim.New(append(c.runnerOpts(), sim.WithMetricsRegistry(reg))...)
	if err := c.runSweep(runner, reg, sweepJobs(sweepKernels(-1, g), workers)); err != nil {
		return nil, err
	}
	if len(c.res.Problems) > 0 {
		return nil, fmt.Errorf("%v", c.res.Problems)
	}
	return g, nil
}
