package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"icicle/internal/kernel"
	"icicle/internal/load"
	"icicle/internal/obs"
	"icicle/internal/rocket"
	"icicle/internal/serve"
	"icicle/internal/sim"
	"icicle/internal/store"
)

// The serve-mix key pool: poolSize (configuration, kernel) pairs over
// seed-varied Rocket configurations and three cheap kernels. Every entry
// has its own memo key and store address, and the golden data holds every
// entry's result, so any seed's split of the pool into hit, store and
// miss keys is checkable.
const poolSize = 4096

var cheapKernels = []string{"brmiss", "brmiss_inv", "fencemix"}

// poolSpec returns pool entry i: kernel i mod 3 on the paper's Rocket
// configuration with seven timing parameters set from the mixed-radix
// digits of i/3 (up to 4·2·4·4·4·4·2 = 4096 distinct configurations).
func poolSpec(i int) serve.JobSpec {
	cfg := rocket.DefaultConfig()
	d := i / len(cheapKernels)
	pick := func(vals ...int) int {
		v := vals[d%len(vals)]
		d /= len(vals)
		return v
	}
	cfg.BrMispredictPenalty = pick(2, 3, 4, 5)
	cfg.LoadUseDelay = pick(1, 2)
	cfg.MulLatency = pick(3, 4, 5, 6)
	cfg.DivLatency = pick(12, 16, 20, 24)
	cfg.Hierarchy.L2HitLatency = pick(14, 20, 26, 32)
	cfg.Hierarchy.MemLatency = pick(60, 80, 100, 120)
	cfg.FencePenalty = pick(2, 4)
	return serve.JobSpec{Core: "rocket", Kernel: cheapKernels[i%len(cheapKernels)], Rocket: &cfg}
}

// Rungs of the open-loop ladder, at about 20%, 50% and 80% of the mix's
// saturation throughput on the reference host (about 400 req/s on a
// 2 vCPU Xeon with one request in flight).
var rungs = []struct {
	name string
	rate float64 // req/s
}{{"low", 80}, {"mid", 200}, {"high", 320}}

// The traffic mix: memo reads, store reads of keys persisted during
// set-up (each requested once, with a cold memo), and fresh simulations
// (each key requested once).
var mixProfiles = []load.Profile{
	{Client: "hit", Weight: 1, Share: 0.7},
	{Client: "store", Weight: 1, Share: 0.2},
	{Client: "miss", Weight: 1, Share: 0.1},
}

const (
	hitKeys   = 64
	setups    = 3     // set-ups per repetition; the last one serves the ladder
	okP99MS   = 100.0 // max_ok_rps latency limit
	okAchieve = 0.9   // below this achieved/target ratio the backlog grows
)

// mixPlan splits the pool for one seed.
type mixPlan struct {
	hit, store, miss []serve.JobSpec
	entry            map[string]int // job key → pool index
}

func newMixPlan(seed int64, rungSec float64) (*mixPlan, error) {
	var total float64
	for _, r := range rungs {
		total += r.rate * rungSec
	}
	need := func(share float64) int { return int(1.25*share*total) + 32 }
	nStore, nMiss := need(0.2), need(0.1)
	if hitKeys+nStore+nMiss > poolSize {
		return nil, fmt.Errorf("serve-mix: %.0f s rungs need %d keys, the pool has %d", rungSec, hitKeys+nStore+nMiss, poolSize)
	}
	perm := rand.New(rand.NewSource(seed)).Perm(poolSize)
	p := &mixPlan{entry: map[string]int{}}
	for n, i := range perm[:hitKeys+nStore+nMiss] {
		spec := poolSpec(i)
		j, err := spec.Job()
		if err != nil {
			return nil, err
		}
		p.entry[j.Key()] = i
		switch {
		case n < hitKeys:
			p.hit = append(p.hit, spec)
		case n < hitKeys+nStore:
			p.store = append(p.store, spec)
		default:
			p.miss = append(p.miss, spec)
		}
	}
	return p, nil
}

// timedStore is the sim.ResultStore the traced repetition hands the
// server's runner: the store, timed at every call.
type timedStore struct {
	st *store.Store

	mu       sync.Mutex
	getUS    []float64
	putUS    []float64
	hits     int
	putBytes float64
}

func (t *timedStore) Get(key string) ([]byte, bool) {
	t0 := time.Now()
	b, ok := t.st.Get(key)
	d := float64(time.Since(t0)) / 1e3
	t.mu.Lock()
	t.getUS = append(t.getUS, d)
	if ok {
		t.hits++
	}
	t.mu.Unlock()
	return b, ok
}

func (t *timedStore) Put(key string, payload []byte) error {
	t0 := time.Now()
	err := t.st.Put(key, payload)
	d := float64(time.Since(t0)) / 1e3
	t.mu.Lock()
	t.putUS = append(t.putUS, d)
	t.putBytes += float64(len(payload))
	t.mu.Unlock()
	return err
}

func (t *timedStore) reset() {
	t.mu.Lock()
	t.getUS, t.putUS, t.hits, t.putBytes = nil, nil, 0, 0
	t.mu.Unlock()
}

// capture keeps every HTTP response body for checking after the ladder,
// so the checks stay out of the measured latencies.
type capture struct {
	base   http.RoundTripper
	mu     sync.Mutex
	bodies [][]byte
}

func (c *capture) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := c.base.RoundTrip(req)
	if err != nil || req.URL.Path != "/jobs" {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode == http.StatusOK {
		c.mu.Lock()
		c.bodies = append(c.bodies, body)
		c.mu.Unlock()
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return resp, nil
}

// request is one timed request of the ladder.
type request struct {
	rung, seq  int
	class      string
	start, end time.Time
	err        error
}

// mixTarget sends each class's requests through its own load.HTTPTarget
// (wait mode), walking the class's key list so that store and miss keys
// are each requested exactly once.
type mixTarget struct {
	classes map[string]*load.HTTPTarget
	next    map[string]*atomic.Int64
	rung    atomic.Int64

	mu   sync.Mutex
	reqs []request
}

func (t *mixTarget) Do(p load.Profile, seq int) error {
	ht := t.classes[p.Client]
	i := int(t.next[p.Client].Add(1) - 1)
	start := time.Now()
	var err error
	if p.Client != "hit" && i >= len(ht.Specs) {
		err = fmt.Errorf("%s class ran out of its %d keys", p.Client, len(ht.Specs))
	} else {
		err = ht.Do(p, i)
	}
	r := request{rung: int(t.rung.Load()), seq: seq, class: p.Client, start: start, end: time.Now(), err: err}
	t.mu.Lock()
	t.reqs = append(t.reqs, r)
	t.mu.Unlock()
	return err
}

// server is one set-up: a store seeded with the store-class keys and a
// server on a loopback port whose memo holds the hit-class keys.
type server struct {
	srv    *serve.Server
	timed  *timedStore
	base   string
	client *http.Client
	cap    *capture
}

// responses decodes and clears the captured /jobs responses.
func (s *server) responses() []serve.JobResult {
	s.cap.mu.Lock()
	bodies := s.cap.bodies
	s.cap.bodies = nil
	s.cap.mu.Unlock()
	var out []serve.JobResult
	for _, b := range bodies {
		var st serve.StatusResponse
		if err := json.Unmarshal(b, &st); err != nil {
			out = append(out, serve.JobResult{Error: "undecodable response: " + err.Error()})
			continue
		}
		out = append(out, st.Results...)
	}
	return out
}

func (s *server) close() {
	s.client.CloseIdleConnections()
	s.srv.Close()
}

// setUp builds one server. The seeding runner and the server's runner
// check their results after the timed part.
func (c *repCtx) setUp(plan *mixPlan, dir string) (*server, []sim.Result, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, nil, err
	}
	seedJobs := make([]sim.Job, len(plan.store))
	for i, spec := range plan.store {
		if seedJobs[i], err = spec.Job(); err != nil {
			return nil, nil, err
		}
	}
	seeded := sim.New(sim.WithWorkers(workers), sim.WithResultStore(st)).Run(seedJobs)

	s := &server{}
	ropts := c.runnerOpts()
	if c.tr != nil {
		s.timed = &timedStore{st: st}
		ropts = append(ropts, sim.WithResultStore(s.timed))
	}
	s.srv, err = serve.New(serve.Config{
		Store: st, Registry: obs.NewRegistry(), Tracer: c.tr, QueueWorkers: workers, RunnerOpts: ropts,
	})
	if err != nil {
		return nil, nil, err
	}
	addr, err := s.srv.Start("127.0.0.1:0")
	if err != nil {
		s.srv.Close()
		return nil, nil, err
	}
	s.base = "http://" + addr
	ht, err := load.NewHTTPTarget(s.base, plan.hit, workers)
	if err != nil {
		s.srv.Close()
		return nil, nil, err
	}
	s.cap = &capture{base: ht.Client.Transport}
	ht.Client.Transport = s.cap
	s.client = ht.Client
	body, err := json.Marshal(serve.SubmitRequest{Client: "setup", Wait: true, Jobs: plan.hit})
	if err == nil {
		var resp *http.Response
		if resp, err = s.client.Post(s.base+"/jobs", "application/json", bytes.NewReader(body)); err == nil {
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("warming hit keys: %s", resp.Status)
			}
		}
	}
	if err != nil {
		s.close()
		return nil, nil, err
	}
	return s, seeded, nil
}

func serveMixRep(c *repCtx) error {
	rungSec := float64(c.o.seconds) / float64(len(rungs))
	if c.o.trace {
		rungSec /= 2 // a traced run splits its time between two ladders
	}
	dir, err := workDir("serve-mix")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	var s *server
	for k := 0; k < setups; k++ {
		t0 := time.Now()
		plan, err := newMixPlan(c.o.seed, rungSec)
		if err != nil {
			return err
		}
		srv, seeded, err := c.setUp(plan, filepath.Join(dir, fmt.Sprintf("store-%d", k)))
		if err != nil {
			return err
		}
		c.res.SetupSec = append(c.res.SetupSec, time.Since(t0).Seconds())
		for _, r := range seeded {
			c.res.Attempted++
			c.checkResult(serve.ResultJSON(r, false), "store seeding", plan)
		}
		for _, r := range srv.responses() {
			c.res.Attempted++
			c.checkResult(r, "hit warming", plan)
		}
		if k < setups-1 {
			// Only the last set-up serves the ladder: drop the others'
			// garbage so it does not count toward the workload's memory.
			srv.close()
			runtime.GC()
			debug.FreeOSMemory()
			continue
		}
		s = srv
		defer s.close()
		if err := c.ladder(s, plan, rungSec); err != nil {
			return err
		}
	}
	return nil
}

// checkResult checks one job result against the golden data and the
// kernel's self-check.
func (c *repCtx) checkResult(r serve.JobResult, what string, plan *mixPlan) {
	i, ok := plan.entry[r.Key]
	if !ok {
		c.fail("%s: key outside the plan: %s", what, r.Key)
		return
	}
	spec := poolSpec(i)
	if r.Error != "" {
		c.fail("%s: pool entry %d: %s", what, i, r.Error)
		return
	}
	if k, err := kernel.ByName(spec.Kernel); err == nil && k.Expected != 0 && r.Exit != fmt.Sprintf("%#x", k.Expected) {
		c.fail("%s: pool entry %d: exit %s, want %#x", what, i, r.Exit, k.Expected)
	}
	c.expect("results", strconv.Itoa(i), jobResultDigest(r), fmt.Sprintf("%s: pool entry %d", what, i))
}

// ladder drives the three open-loop rungs and derives the serve-mix
// metrics.
func (c *repCtx) ladder(s *server, plan *mixPlan, rungSec float64) error {
	tgt := &mixTarget{classes: map[string]*load.HTTPTarget{}, next: map[string]*atomic.Int64{}}
	for class, specs := range map[string][]serve.JobSpec{"hit": plan.hit, "store": plan.store, "miss": plan.miss} {
		tgt.classes[class] = &load.HTTPTarget{BaseURL: s.base, Specs: specs, Client: s.client}
		tgt.next[class] = &atomic.Int64{}
	}
	if s.timed != nil {
		s.timed.reset()
	}
	scrape := func() (*obs.Scraped, error) { return obs.ScrapeURL(s.base + "/metrics") }
	ph, err := c.startPhase(s.srv.Runner(), scrape)
	if err != nil {
		return err
	}
	steps := make([]*load.StepResult, len(rungs))
	seeds := make([]int64, len(rungs))
	befores := make([]time.Time, len(rungs))
	for i, r := range rungs {
		tgt.rung.Store(int64(i))
		seeds[i] = c.o.seed*int64(len(rungs)) + int64(i)
		end := c.span("rung " + r.name)
		befores[i] = time.Now()
		steps[i], err = load.Run(tgt, load.Options{
			Mode: load.Open, Pacing: load.Poisson, Rate: r.rate,
			Duration:    time.Duration(rungSec * float64(time.Second)),
			MaxInFlight: workers, Seed: seeds[i], Profiles: mixProfiles,
		})
		end()
		if err != nil {
			return err
		}
	}
	wall, err := ph.stop()
	if err != nil {
		return err
	}
	m := c.res.Metrics

	// Every response: golden result, kernel self-check, and the source
	// its class must be served from (cold-state plan).
	seen := map[string]bool{}
	var insts float64
	s.cap.mu.Lock()
	bodies := s.cap.bodies
	s.cap.mu.Unlock()
	for _, b := range bodies {
		var st serve.StatusResponse
		if err := json.Unmarshal(b, &st); err != nil || len(st.Results) != 1 {
			c.fail("undecodable /jobs response: %v", err)
			continue
		}
		r := st.Results[0]
		c.checkResult(r, st.Client+" request", plan)
		insts += float64(r.Insts)
		switch {
		case st.Client == "hit" && (!r.Cached || r.FromStore):
			c.fail("hit request for %s not served from the memo (cached=%v from_store=%v)", r.Key, r.Cached, r.FromStore)
		case st.Client == "store" && !r.FromStore:
			c.fail("store request for %s not served from the store (cached=%v)", r.Key, r.Cached)
		case st.Client == "miss" && r.Cached:
			c.fail("miss request for %s served from a cache (from_store=%v)", r.Key, r.FromStore)
		}
		if st.Client != "hit" {
			if seen[r.Key] {
				c.fail("%s key %s requested twice", st.Client, r.Key)
			}
			seen[r.Key] = true
		}
	}

	// Exact latencies from the intended send times, which follow from
	// each rung's seed exactly as internal/load draws them.
	var dropped float64
	achieved := 1.0
	var lateMS float64
	tgt.mu.Lock()
	reqs := tgt.reqs
	tgt.mu.Unlock()
	c.res.Attempted += len(reqs)
	if len(bodies) != len(reqs)-countErrs(reqs) {
		c.fail("%d responses captured for %d successful requests", len(bodies), len(reqs)-countErrs(reqs))
	}
	for i, r := range rungs {
		sr := steps[i]
		lat, late, byClass := rungLatencies(reqs, i, befores[i], seeds[i], r.rate, sr, rungSec)
		m["load.p50_ms_"+r.name] = quantile(lat, 0.5)
		m["load.p99_ms_"+r.name] = quantile(lat, 0.99)
		if d := quantile(late, 0.99); d > lateMS {
			lateMS = d
		}
		if hdr := sr.Latency.P50 * 1e3; hdr > 0 && (m["load.p50_ms_"+r.name] > 1.25*hdr || m["load.p50_ms_"+r.name] < 0.75*hdr) {
			c.problem("rung %s: reconstructed p50 %.3f ms disagrees with internal/load's %.3f ms", r.name, m["load.p50_ms_"+r.name], hdr)
		}
		dropped += float64(sr.Dropped)
		if sr.AchievedRatio < achieved {
			achieved = sr.AchievedRatio
		}
		if sr.Errors == 0 && sr.Dropped == 0 && sr.AchievedRatio >= okAchieve && m["load.p99_ms_"+r.name] <= okP99MS {
			m["load.max_ok_rps"] = r.rate
		}
		if r.name == "mid" {
			m["p50_ms"] = m["load.p50_ms_mid"]
			for _, class := range []string{"hit", "store", "miss"} {
				m["serve."+class+".p50_ms"] = quantile(byClass[class], 0.5)
				m["serve."+class+".p99_ms"] = quantile(byClass[class], 0.99)
			}
		}
	}
	for _, r := range reqs {
		if r.err != nil {
			c.fail("%s request: %v", r.class, r.err)
		}
	}
	if dropped > 0 {
		c.problem("load generator dropped %.0f arrivals", dropped)
	}
	m["load.dropped"] = dropped
	m["load.achieved_ratio"] = achieved
	m["load.late_ms.p99"] = lateMS
	m["minst_per_s"] = insts / wall.Seconds() / 1e6

	d := c.obs.ctr
	jobsHist := d.Hist(obs.LabeledName("icicle_serve_request_duration_seconds", "endpoint", "/jobs"))
	m["serve.request_ms.p50"] = jobsHist.Quantile(0.5) * 1e3
	m["serve.request_ms.p99"] = jobsHist.Quantile(0.99) * 1e3
	m["serve.queue_wait_ms.p99"] = d.Hist("icicle_serve_queue_wait_seconds").Quantile(0.99) * 1e3
	if t := s.timed; t != nil {
		t.mu.Lock()
		m["store.get_us.p50"] = quantile(t.getUS, 0.5)
		m["store.get_us.p99"] = quantile(t.getUS, 0.99)
		m["store.put_us.p50"] = quantile(t.putUS, 0.5)
		m["store.put_us.p99"] = quantile(t.putUS, 0.99)
		m["store.hit_ratio"] = ratio(float64(t.hits), float64(len(t.getUS)))
		m["store.bytes_written"] = t.putBytes
		t.mu.Unlock()
	}
	return nil
}

func countErrs(reqs []request) int {
	n := 0
	for _, r := range reqs {
		if r.err != nil {
			n++
		}
	}
	return n
}

// rungLatencies returns one rung's steady-window request latencies (ms,
// from the intended send time: the coordinated-omission correction), how
// late each was sent (ms), and the latencies by class. internal/load
// draws arrival k at start + Σ gaps, each gap ExpFloat64()/rate seconds
// from a source seeded with the rung's seed; start lies after before
// (taken just before load.Run) and no arrival is sent before its
// intended time, so the latest start those bounds allow is exact to the
// least late send. Its steady window starts at the first slice it kept.
func rungLatencies(reqs []request, rung int, before time.Time, seed int64, rate float64, sr *load.StepResult, rungSec float64) (lat, late []float64, byClass map[string][]float64) {
	maxSeq := -1
	for _, r := range reqs {
		if r.rung == rung && r.seq > maxSeq {
			maxSeq = r.seq
		}
	}
	offset := make([]time.Duration, maxSeq+1)
	rng := rand.New(rand.NewSource(seed))
	var next time.Duration
	for k := range offset {
		offset[k] = next
		next += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
	}
	var start time.Time
	for _, r := range reqs {
		if r.rung != rung {
			continue
		}
		if t := r.start.Add(-offset[r.seq]); start.IsZero() || t.Before(start) {
			start = t
		}
	}
	if start.Before(before) {
		start = before
	}
	steadyFrom := start
	if sr.TotalSlices > 0 {
		steadyFrom = start.Add(time.Duration(float64(sr.WarmupSlices) / float64(sr.TotalSlices) * rungSec * float64(time.Second)))
	}
	byClass = map[string][]float64{}
	for _, r := range reqs {
		if r.rung != rung || r.err != nil || r.end.Before(steadyFrom) {
			continue
		}
		intended := start.Add(offset[r.seq])
		l := float64(r.end.Sub(intended)) / 1e6
		lat = append(lat, l)
		late = append(late, float64(r.start.Sub(intended))/1e6)
		byClass[r.class] = append(byClass[r.class], l)
	}
	return lat, late, byClass
}

// serveMixGolden records the HTTP-rendered result of every pool entry.
func serveMixGolden() (golden, error) {
	g := golden{}
	jobs := make([]sim.Job, poolSize)
	for i := range jobs {
		var err error
		if jobs[i], err = poolSpec(i).Job(); err != nil {
			return nil, err
		}
	}
	for i, r := range sim.New(sim.WithWorkers(2)).Run(jobs) {
		if r.Err != nil {
			return nil, fmt.Errorf("pool entry %d: %w", i, r.Err)
		}
		if k := r.Job.Kernel; k.Expected != 0 && r.Exit() != k.Expected {
			return nil, fmt.Errorf("pool entry %d: exit %#x, want %#x", i, r.Exit(), k.Expected)
		}
		g.set("results", strconv.Itoa(i), jobResultDigest(serve.ResultJSON(r, false)))
	}
	keys := make([]string, 0, len(jobs))
	for _, j := range jobs {
		keys = append(keys, j.Key())
	}
	sort.Strings(keys)
	for i := 1; i < len(keys); i++ {
		if keys[i] == keys[i-1] || !strings.HasPrefix(keys[i], "rocket|") {
			return nil, fmt.Errorf("pool keys are not distinct rocket keys: %s", keys[i])
		}
	}
	return g, nil
}
