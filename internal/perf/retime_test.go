package perf_test

import (
	"reflect"
	"sort"
	"testing"

	"icicle/internal/asm"
	"icicle/internal/boom"
	"icicle/internal/kernel"
	"icicle/internal/perf"
	"icicle/internal/rocket"
	"icicle/internal/sim"
)

// The Retime-vs-fresh oracle: the sim core pool keys cores by shape
// (Config.Shape zeroes the pure timing fields) and Retimes a pooled core
// to each job's exact config. For every field Shape drops, a pooled core
// that already ran a different kernel under other timing, once Retimed
// and Reset, must reproduce a fresh core's result byte for byte. Every
// field Shape keeps must move the pool key, and Retime must refuse it.

// retimeKernels rotates so each retimed run follows a different kernel.
var retimeKernels = []string{"towers", "vvadd", "median", "multiply"}

// The timing-only fields, pinned so a change to either Shape is a
// deliberate edit here too.
var (
	rocketTiming = []string{
		"BTBMissPenalty", "BrMispredictPenalty", "CSRLatency", "DivLatency",
		"FenceIPenalty", "FencePenalty", "JALRPenalty", "LoadUseDelay",
		"MaxCycles", "MaxInsts", "MulLatency", "TakenBubble",
		"Hierarchy.L2HitLatency", "Hierarchy.MemLatency",
		"Hierarchy.PTWLatency", "Hierarchy.TLBHitL2",
	}
	boomTiming = []string{
		"BTBMissPenalty", "DivLatency", "JALRPenalty", "LoadLatency",
		"MaxCycles", "MaxInsts", "MulLatency", "RedirectLatency", "TakenBubble",
		"Hierarchy.L2HitLatency", "Hierarchy.MemLatency",
		"Hierarchy.PTWLatency", "Hierarchy.TLBHitL2",
	}
)

func TestRetimeMatchesFresh(t *testing.T) {
	t.Run("rocket", func(t *testing.T) {
		t.Parallel()
		checkRetime(t, rocket.DefaultConfig(),
			func(cfg rocket.Config, prog *asm.Program) (*rocket.Core, error) { return rocket.New(cfg, prog), nil },
			func(cfg rocket.Config, k *kernel.Kernel) string { return sim.RocketJob(cfg, k).PoolKey() },
			rocketTiming)
	})
	for _, size := range boom.Sizes {
		cfg := boom.NewConfig(size)
		t.Run(cfg.Name, func(t *testing.T) {
			t.Parallel()
			checkRetime(t, cfg, boom.New,
				func(cfg boom.Config, k *kernel.Kernel) string { return sim.BoomJob(cfg, k).PoolKey() },
				boomTiming)
		})
	}
}

// checkRetime walks every leaf field of base. A field whose perturbation
// leaves Shape unchanged is timing: a shared core, Retimed to the
// perturbed config, must match a fresh one. Any other field must change
// the pool key and make Retime panic.
func checkRetime[C interface {
	comparable
	Shape() C
}, R any, K interface {
	perf.Core[R]
	Retime(C)
}](t *testing.T, base C, build func(C, *asm.Program) (K, error), poolKey func(C, *kernel.Kernel) string, wantTiming []string) {
	ks := make([]*kernel.Kernel, len(retimeKernels))
	for i, name := range retimeKernels {
		k, err := kernel.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ks[i] = k
	}
	// The base config's results per kernel: a retimed run that matches
	// these did not exercise its field.
	baseRes := make([]R, len(ks))
	var shared K
	for i, k := range ks {
		c, err := build(base, k.MustProgram())
		if err != nil {
			t.Fatal(err)
		}
		if baseRes[i], _, err = perf.Run[R](c, k); err != nil {
			t.Fatal(err)
		}
		shared = c // the last kernel's core goes on into the sweep
	}
	baseKey := poolKey(base, ks[0])

	var timing []string
	moved := 0 // timing perturbations that changed the result
	cfg := base
	forEachLeaf(t, reflect.ValueOf(&cfg).Elem(), "", func(name string) {
		defer func() { cfg = base }()
		if cfg.Shape() != base.Shape() {
			if poolKey(cfg, ks[0]) == baseKey {
				t.Errorf("%s is kept by Shape but does not move the pool key", name)
			}
			if !panics(func() { shared.Retime(cfg) }) {
				t.Errorf("Retime across %s (a shape field) did not panic", name)
			}
			return
		}
		timing = append(timing, name)
		ki := len(timing) % len(ks) // a different kernel from the last run
		k := ks[ki]
		fresh, err := build(cfg, k.MustProgram())
		if err != nil {
			t.Fatalf("%s: build: %v", name, err)
		}
		fr, fb, err := perf.Run[R](fresh, k)
		if err != nil {
			t.Fatalf("%s: fresh run: %v", name, err)
		}
		shared.Retime(cfg)
		rr, rb, err := perf.Run[R](shared, k)
		if err != nil {
			t.Fatalf("%s: retimed run: %v", name, err)
		}
		if !reflect.DeepEqual(fr, rr) {
			t.Errorf("%s on %s: retimed-core result diverges from fresh core\nfresh:   %+v\nretimed: %+v",
				name, k.Name, fr, rr)
		}
		if fb != rb {
			t.Errorf("%s on %s: TMA breakdown diverges\nfresh:   %+v\nretimed: %+v", name, k.Name, fb, rb)
		}
		if !reflect.DeepEqual(fr, baseRes[ki]) {
			moved++
		}
	})
	sort.Strings(timing)
	want := append([]string(nil), wantTiming...)
	sort.Strings(want)
	if !reflect.DeepEqual(timing, want) {
		t.Errorf("Shape drops %v, want exactly %v", timing, want)
	}
	// The budgets never bind on these kernels and a few latencies go
	// unexercised by the kernel they land on, but if most perturbations
	// left the result alone the comparison above would prove nothing.
	if 2*moved <= len(timing) {
		t.Errorf("only %d of %d timing perturbations changed the result: the oracle is blind", moved, len(timing))
	}
}

// forEachLeaf perturbs each leaf field reachable from v in turn
// (recursing through nested structs) and calls fn with its dotted name;
// fn restores v. A field kind it cannot perturb fails the test, so a new
// field type cannot slip past the walk.
func forEachLeaf(t *testing.T, v reflect.Value, prefix string, fn func(name string)) {
	t.Helper()
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), prefix+v.Type().Field(i).Name
		switch f.Kind() {
		case reflect.Struct:
			forEachLeaf(t, f, name+".", fn)
			continue
		case reflect.Int:
			f.SetInt(f.Int() + 3)
		case reflect.Uint8, reflect.Uint64:
			f.SetUint(f.Uint() + 1)
		case reflect.Bool:
			f.SetBool(!f.Bool())
		case reflect.String:
			f.SetString(f.String() + "~")
		default:
			t.Errorf("%s has kind %s the retime walk cannot perturb", name, f.Kind())
			continue
		}
		fn(name)
	}
}

func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}
