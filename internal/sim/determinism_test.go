package sim

import (
	"reflect"
	"testing"

	"icicle/internal/boom"
	"icicle/internal/kernel"
	"icicle/internal/perf"
	"icicle/internal/rocket"
)

// TestParallelMatchesSerialRocketGrid runs the Fig. 7(a) Rocket grid once
// serially (direct perf calls, no runner) and once through a parallel
// runner, and requires byte-identical Breakdown rows and event totals.
func TestParallelMatchesSerialRocketGrid(t *testing.T) {
	cfg := rocket.DefaultConfig()
	micro := kernel.ByCategory(kernel.CatMicro)

	serialRows := make([]string, len(micro))
	serialTallies := make([]map[string]uint64, len(micro))
	for i, k := range micro {
		res, b, err := perf.Run(rocket.New(cfg, k.MustProgram()), k)
		if err != nil {
			t.Fatalf("serial %s: %v", k.Name, err)
		}
		serialRows[i] = b.Row(k.Name)
		serialTallies[i] = res.Tally
	}

	jobs := make([]Job, len(micro))
	for i, k := range micro {
		jobs[i] = RocketJob(cfg, k)
	}
	r := New(WithWorkers(8))
	for i, res := range r.Run(jobs) {
		k := micro[i]
		if res.Err != nil {
			t.Fatalf("parallel %s: %v", k.Name, res.Err)
		}
		if row := res.Breakdown.Row(k.Name); row != serialRows[i] {
			t.Errorf("%s breakdown diverges:\nserial:   %s\nparallel: %s",
				k.Name, serialRows[i], row)
		}
		if !reflect.DeepEqual(res.Rocket.Tally, serialTallies[i]) {
			t.Errorf("%s event totals diverge between serial and parallel runs", k.Name)
		}
	}
}

// TestParallelMatchesSerialBoomGrid is the same determinism check for the
// Fig. 7(k) LargeBOOM grid, including per-lane totals.
func TestParallelMatchesSerialBoomGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("BOOM grid is slow; skipped with -short")
	}
	cfg := boom.NewConfig(boom.Large)
	micro := kernel.ByCategory(kernel.CatMicro)

	serialRows := make([]string, len(micro))
	serialTallies := make([]map[string]uint64, len(micro))
	serialLanes := make([]map[string][]uint64, len(micro))
	for i, k := range micro {
		res, b, err := perf.Run(boom.MustNew(cfg, k.MustProgram()), k)
		if err != nil {
			t.Fatalf("serial %s: %v", k.Name, err)
		}
		serialRows[i] = b.Row(k.Name)
		serialTallies[i] = res.Tally
		serialLanes[i] = res.LaneTally
	}

	jobs := make([]Job, len(micro))
	for i, k := range micro {
		jobs[i] = BoomJob(cfg, k)
	}
	r := New(WithWorkers(8))
	for i, res := range r.Run(jobs) {
		k := micro[i]
		if res.Err != nil {
			t.Fatalf("parallel %s: %v", k.Name, res.Err)
		}
		if row := res.Breakdown.Row(k.Name); row != serialRows[i] {
			t.Errorf("%s breakdown diverges:\nserial:   %s\nparallel: %s",
				k.Name, serialRows[i], row)
		}
		if !reflect.DeepEqual(res.Boom.Tally, serialTallies[i]) {
			t.Errorf("%s event totals diverge between serial and parallel runs", k.Name)
		}
		if !reflect.DeepEqual(res.Boom.LaneTally, serialLanes[i]) {
			t.Errorf("%s per-lane totals diverge between serial and parallel runs", k.Name)
		}
	}
}
