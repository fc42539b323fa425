package sim

import (
	"sync"

	"icicle/internal/asm"
	"icicle/internal/boom"
	"icicle/internal/core"
	"icicle/internal/obs"
	"icicle/internal/perf"
	"icicle/internal/rocket"
	"icicle/internal/sample"
)

// Core pools: Reset-able cores recycled across jobs instead of rebuilt
// per job. Building a core allocates its caches, predictor tables,
// sparse-memory frames, and uop arena; Reset restores all of that in
// place (the program image is zeroed and copied back), so a pooled job's
// steady-state cost is the cycle loop alone. One sync.Pool per shape
// (Job.PoolKey: the core kind plus every config field except the pure
// timing ones) — a pooled core is only ever handed to a job whose config
// builds the same structures, and is Retimed to that job's exact config
// before it runs, so a timing-only sweep reuses one core. Idle cores stay
// reclaimable by the GC; the key map holds one entry per shape ever run.
//
// The pools are process-wide (like the kernel program cache): every
// Runner shares them, so replacing the default runner keeps warm cores.
type corePools struct {
	mu    sync.Mutex
	pools map[string]*sync.Pool
}

// get returns key's pool, creating it on first use, and publishes the
// number of distinct keys on gauge.
func (cp *corePools) get(key string, gauge *obs.Gauge) *sync.Pool {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	if cp.pools == nil {
		cp.pools = map[string]*sync.Pool{}
	}
	p := cp.pools[key]
	if p == nil {
		p = &sync.Pool{}
		cp.pools[key] = p
	}
	gauge.Set(int64(len(cp.pools)))
	return p
}

var cores corePools

// executeJob runs one job on the tid's trace track, on the core model
// its kind selects. The per-kind code is only the acquisition closure
// (Retime a pooled core, or build one), the telemetry handle, and the
// result field; everything else is runDetailed.
func (r *Runner) executeJob(j Job, tid int) Result {
	res := Result{Job: j}
	if j.Core == Boom {
		res.Boom, res.Sampled, res.Breakdown, res.Err = runDetailed(r, j, tid, r.m.boom,
			func(c perf.Core[boom.Result], prog *asm.Program) (perf.Core[boom.Result], error) {
				if c != nil {
					c.(*boom.Core).Retime(j.Boom)
					return c, nil
				}
				return boom.New(j.Boom, prog)
			})
	} else {
		res.Rocket, res.Sampled, res.Breakdown, res.Err = runDetailed(r, j, tid, r.m.rocket,
			func(c perf.Core[rocket.Result], prog *asm.Program) (perf.Core[rocket.Result], error) {
				if c != nil {
					c.(*rocket.Core).Retime(j.Rocket)
					return c, nil
				}
				return rocket.New(j.Rocket, prog), nil
			})
	}
	return res
}

// runDetailed acquires the job's cores and runs it in its detail mode:
// full detail through the split perf.Simulate/Tally halves, the serial
// sampled engine, or the two-phase plan engine on SamplePar window
// workers. Each stage gets its own span. With pooling enabled (the
// default) the cores are recycled: acquire gets each pooled core (nil on
// a pool miss, with the kernel's program) and returns it Retimed to the
// job's config, or a freshly built one. Retime plus the Reset every
// engine starts with guarantee the result is byte-identical to a
// fresh-core run (the determinism, Reset- and Retime-matches-fresh
// tests enforce this), so pooling is invisible outside the allocation
// profile. With pooling off every core is built fresh and dropped
// afterwards. Cores go back to the pool even after an error: Reset
// reinitializes every field and Retime every timing one. The runner's
// throughput telemetry handle is (re-)installed on every acquisition —
// it survives Reset, so cycle and instruction counts are attributed to
// the runner currently driving the core.
func runDetailed[R any](r *Runner, j Job, tid int, tel *obs.CoreTelemetry,
	acquire func(perf.Core[R], *asm.Program) (perf.Core[R], error)) (res R, rep *sample.Report, b core.Breakdown, err error) {
	tr := r.tracer
	plan := j.Sample.Enabled() && j.SamplePar > 0
	n := 1
	if plan {
		n = j.SamplePar
	}
	cs := make([]perf.Core[R], 0, n)
	var pool *sync.Pool
	if r.corePool {
		pool = cores.get(j.PoolKey(), r.m.corePools)
		defer func() {
			for _, c := range cs {
				pool.Put(c)
			}
		}()
	}

	acq := tr.Begin("acquire-core", "pool", tid)
	fresh := false
	for len(cs) < n {
		var c perf.Core[R]
		if pool != nil {
			c, _ = pool.Get().(perf.Core[R])
		}
		var prog *asm.Program // stays nil when a pooled core is retimed
		if c == nil {
			if prog, err = j.Kernel.Program(); err != nil {
				return res, nil, b, err
			}
		}
		if c, err = acquire(c, prog); err != nil {
			return res, nil, b, err
		}
		if prog != nil {
			r.m.coreBuilds.Inc()
			fresh = true
		} else {
			r.m.coreReuses.Inc()
		}
		c.SetTelemetry(tel)
		cs = append(cs, c)
	}
	if tr != nil {
		acq.End(obs.Arg{Key: "fresh", Val: fresh})
	}

	o := sample.Options{Telemetry: r.m.sample, Tracer: tr, Tid: tid}
	switch {
	case plan:
		sp := tr.Begin("simulate-sampled-par", "sim", tid)
		res, rep, b, err = perf.SamplePar(cs, j.Kernel, j.Sample, o, r.windowMemo(j))
		sp.End()
	case j.Sample.Enabled():
		sp := tr.Begin("simulate-sampled", "sim", tid)
		res, rep, b, err = perf.Sample(cs[0], j.Kernel, j.Sample, o)
		sp.End()
	default:
		sp := tr.Begin("simulate", "sim", tid)
		err = perf.Simulate(cs[0], j.Kernel)
		sp.End()
		if err == nil {
			tp := tr.Begin("tally", "sim", tid)
			res, b, err = perf.Tally(cs[0])
			tp.End()
		}
	}
	return res, rep, b, err
}
