package sim

import (
	"fmt"
	"runtime"
	"testing"

	"icicle/internal/kernel"
	"icicle/internal/obs"
	"icicle/internal/rocket"
)

// timingSweep returns n Rocket jobs over three cheap kernels whose
// configs differ only in timing fields (the serve-mix shape of sweep):
// distinct memo keys, one pool key.
func timingSweep(t *testing.T, n int) []Job {
	ks := []*kernel.Kernel{mustKernel(t, "brmiss"), mustKernel(t, "brmiss_inv"), mustKernel(t, "fencemix")}
	jobs := make([]Job, n)
	for i := range jobs {
		cfg := rocket.DefaultConfig()
		cfg.BrMispredictPenalty = 2 + i%4
		cfg.FencePenalty = 2 + 2*(i/4%2)
		cfg.Hierarchy.L2HitLatency = 14 + 6*(i/8%4)
		cfg.Hierarchy.MemLatency = 60 + 20*(i/32%2)
		jobs[i] = RocketJob(cfg, ks[i%len(ks)])
	}
	return jobs
}

// TestTimingSweepReusesOneCore: a 64-config timing-only sweep on one
// worker builds exactly one core, retimes it for every other job, keeps a
// single pool key, and reproduces the fresh-core (WithoutCorePool)
// results byte for byte.
func TestTimingSweepReusesOneCore(t *testing.T) {
	// sync.Pool caches per P, and a Get on another P cannot see the
	// last Put's private slot; one P makes the build count measure the
	// pool key alone, not the scheduler.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// The pools are process-wide: start from none so the gauge counts
	// this sweep's keys alone.
	cores.mu.Lock()
	cores.pools = nil
	cores.mu.Unlock()

	jobs := timingSweep(t, 64)
	memo, pools := map[string]bool{}, map[string]bool{}
	for _, j := range jobs {
		memo[j.Key()] = true
		pools[j.PoolKey()] = true
	}
	if len(memo) != len(jobs) || len(pools) != 1 {
		t.Fatalf("sweep has %d memo keys and %d pool keys, want %d and 1", len(memo), len(pools), len(jobs))
	}

	reg := obs.NewRegistry()
	pooled := New(WithWorkers(1), WithMetricsRegistry(reg))
	got := pooled.Run(jobs)
	want := New(WithWorkers(1), WithoutCorePool()).Run(jobs)
	st := pooled.Stats()
	// Under -race sync.Pool drops Puts at random, so there the test only
	// checks that every job acquired one core; the results and the key
	// count are checked in every build.
	if raceEnabled {
		if st.CoreBuilds+st.CoreReuses != uint64(len(jobs)) {
			t.Errorf("pooled sweep built %d cores and reused %d over %d jobs", st.CoreBuilds, st.CoreReuses, len(jobs))
		}
	} else if st.CoreBuilds != 1 || st.CoreReuses != uint64(len(jobs)-1) {
		t.Errorf("pooled sweep built %d cores and reused %d, want 1 and %d", st.CoreBuilds, st.CoreReuses, len(jobs)-1)
	}
	if g := reg.Gauge("icicle_sim_core_pools", "").Value(); g != 1 {
		t.Errorf("icicle_sim_core_pools = %d after the sweep, want 1", g)
	}
	cycles := map[uint64]bool{}
	for i := range jobs {
		if got[i].Err != nil || want[i].Err != nil {
			t.Fatalf("job %d: pooled err %v, fresh err %v", i, got[i].Err, want[i].Err)
		}
		// fmt renders maps in key order, so equal results render to
		// equal bytes.
		gb := fmt.Sprintf("%+v|%+v", got[i].Rocket, got[i].Breakdown)
		wb := fmt.Sprintf("%+v|%+v", want[i].Rocket, want[i].Breakdown)
		if gb != wb {
			t.Errorf("job %d (%s): pooled result differs from a fresh core's\npooled: %s\nfresh:  %s", i, jobs[i].Key(), gb, wb)
		}
		cycles[got[i].Cycles()] = true
	}
	// The sweep must actually vary the timing the cores see.
	if len(cycles) < len(jobs)/4 {
		t.Errorf("only %d distinct cycle counts over %d timing configs", len(cycles), len(jobs))
	}
}
