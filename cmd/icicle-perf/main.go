// Command icicle-perf is the perf-like front end of the Icicle stack: it
// runs a workload kernel on a simulated Rocket or BOOM core with the PMU
// programmed through the CSR interface, then prints the hierarchical TMA
// breakdown (the tma_tool of the paper's artifact).
//
// Usage:
//
//	icicle-perf -core boom -size large -kernel coremark
//	icicle-perf -core rocket -kernel qsort -counters distributed
//	icicle-perf -list
package main

import (
	"flag"
	"fmt"
	"os"

	"icicle/internal/asm"
	"icicle/internal/boom"
	"icicle/internal/core"
	"icicle/internal/isa"
	"icicle/internal/kernel"
	"icicle/internal/mem"
	"icicle/internal/obs"
	"icicle/internal/perf"
	"icicle/internal/pmu"
	"icicle/internal/rocket"
	"icicle/internal/sample"
)

// tele is the shared telemetry wiring; package-level so fatal can flush
// the -metrics-out/-trace-span-out files before exiting.
var tele obs.CLI

func main() {
	var (
		coreKind = flag.String("core", "boom", "core to simulate: rocket or boom")
		size     = flag.String("size", "large", "BOOM size: small, medium, large, mega, giga")
		kname    = flag.String("kernel", "coremark", "workload kernel (see -list)")
		counters = flag.String("counters", "add-wires", "counter architecture: scalar, add-wires, distributed")
		list     = flag.Bool("list", false, "list available kernels and exit")
		events   = flag.Bool("events", false, "also dump raw event totals")
		tlb      = flag.Bool("tlb", false, "enable the third-level TLB extension")
		ras      = flag.Bool("ras", false, "enable BOOM's return-address stack")

		sampleDef    = sample.Default()
		sampleWindow = flag.Uint64("sample-window", 0, "sampled simulation: detailed window length in cycles (0 = full detail)")
		samplePeriod = flag.Uint64("sample-period", sampleDef.Period, "sampled simulation: instructions fast-forwarded between windows")
		sampleWarmup = flag.Int("sample-warmup", sampleDef.Warmup, "sampled simulation: trailing fast-forward instructions that warm caches and predictors")
		samplePar    = flag.Int("sample-par", 0, "sampled simulation: run the two-phase engine with this many window workers (0 = classic serial engine; report is identical for any worker count)")

		noSuperblock = flag.Bool("no-superblock", false, "disable the superblock threaded-code functional engine (debug/ablation; results are bit-identical either way)")
		noSkip       = flag.Bool("no-skip", false, "disable event-driven stall-cycle skipping in the detailed cores (debug/ablation; results are bit-identical either way)")
	)
	tele.AddFlags(flag.CommandLine)
	flag.Parse()
	isa.DefaultSuperblocks = !*noSuperblock
	rocket.DefaultStallSkip = !*noSkip
	boom.DefaultStallSkip = !*noSkip
	if err := tele.Start("icicle-perf"); err != nil {
		fatal(err)
	}
	defer stopTele()

	if *list {
		for _, k := range kernel.All() {
			fmt.Printf("%-18s %-11s %s\n", k.Name, k.Category, k.Description)
		}
		return
	}

	arch, err := pmu.ParseArchitecture(*counters)
	if err != nil {
		fatal(err)
	}
	k, err := kernel.ByName(*kname)
	if err != nil {
		fatal(err)
	}
	sp := sample.Policy{Window: *sampleWindow, Period: *samplePeriod, Warmup: *sampleWarmup}
	if err := sp.Validate(); err != nil {
		fatal(err)
	}

	var (
		tally map[string]uint64
		b     core.Breakdown
		rep   *sample.Report
		label string
		hier  mem.HierarchyConfig
	)
	switch *coreKind {
	case "rocket":
		cfg := rocket.DefaultConfig()
		cfg.PMUArch = arch
		var res rocket.Result
		res, rep, b, err = profile(k, sp, *samplePar, *coreKind,
			func(prog *asm.Program) (*rocket.Core, error) { return rocket.New(cfg, prog), nil })
		tally, label, hier = res.Tally, "Rocket", cfg.Hierarchy
	case "boom":
		s, perr := boom.ParseSize(*size)
		if perr != nil {
			fatal(perr)
		}
		cfg := boom.NewConfig(s)
		cfg.PMUArch = arch
		cfg.UseRAS = *ras
		var res boom.Result
		res, rep, b, err = profile(k, sp, *samplePar, *coreKind,
			func(prog *asm.Program) (*boom.Core, error) { return boom.New(cfg, prog) })
		tally, label, hier = res.Tally, cfg.Name, cfg.Hierarchy
	default:
		fatal(fmt.Errorf("unknown core %q (want rocket or boom)", *coreKind))
	}
	if err != nil {
		fatal(err)
	}
	if *tlb {
		b = withTLB(b, hier.TLBHitL2, hier.PTWLatency)
	}
	fmt.Printf("%s on %s (%v counters)\n", k.Name, label, arch)
	fmt.Print(b)
	printSampled(rep)
	if *events {
		dump(tally)
	}
}

// profile builds the cores for the kernel's program — one, or -sample-par
// window workers for the two-phase engine — with the process telemetry
// installed under the core kind's label, and runs the kernel in full
// detail or on the requested sampled engine.
func profile[C perf.Core[R], R any](k *kernel.Kernel, sp sample.Policy, par int, kind string,
	build func(*asm.Program) (C, error)) (R, *sample.Report, core.Breakdown, error) {
	var zero R
	prog, err := k.Program()
	if err != nil {
		return zero, nil, core.Breakdown{}, err
	}
	plan := sp.Enabled() && par > 0
	cs := make([]C, 1)
	if plan {
		cs = make([]C, par)
	}
	for i := range cs {
		if cs[i], err = build(prog); err != nil {
			return zero, nil, core.Breakdown{}, err
		}
		cs[i].SetTelemetry(obs.CoreTelemetryIn(obs.Default(), kind))
	}
	switch {
	case plan:
		return perf.SamplePar(cs, k, sp, sampleOpts(), nil)
	case sp.Enabled():
		return perf.Sample(cs[0], k, sp, sampleOpts())
	}
	res, b, err := perf.Run(cs[0], k)
	return res, nil, b, err
}

// sampleOpts wires a sampled run into the process-wide telemetry
// registry and (when enabled) the span tracer.
func sampleOpts() sample.Options {
	return sample.Options{
		Telemetry: sample.TelemetryIn(obs.Default()),
		Tracer:    obs.Tracing(),
		Tid:       1,
	}
}

// printSampled appends the estimation summary of a sampled run to the
// breakdown output; a nil report (full-detail run) prints nothing.
func printSampled(rep *sample.Report) {
	if rep == nil {
		return
	}
	if rep.Exact {
		fmt.Printf("sampled (%s): program shorter than one period; run was exact full detail\n", rep.Policy)
		return
	}
	fmt.Printf("sampled (%s): est cycles %d  insts %d  windows %d  coverage %.2f%%\n",
		rep.Policy, rep.EstCycles, rep.TotalInsts, len(rep.Windows), 100*rep.Coverage)
	fmt.Printf("  CPI %.4f  95%% CI [%.4f, %.4f]\n", rep.CPI, rep.CPICI.Lo, rep.CPICI.Hi)
	for _, name := range []string{"Retiring", "BadSpec", "Frontend", "Backend"} {
		if iv, ok := rep.CategoryCI[name]; ok {
			fmt.Printf("  %-8s 95%% CI [%5.1f%%, %5.1f%%]\n", name, 100*iv.Lo, 100*iv.Hi)
		}
	}
}

// withTLB re-evaluates a breakdown with the TLB extension enabled, using
// the hierarchy's translation penalties.
func withTLB(b core.Breakdown, l2hit, ptw int) core.Breakdown {
	cfg := b.Cfg
	cfg.TLB = &core.TLBPenalties{L2TLBHit: l2hit, PTW: ptw}
	return core.MustEvaluate(cfg, b.Counts)
}

func dump(tally map[string]uint64) {
	fmt.Println("raw event totals:")
	for _, k := range sortedKeys(tally) {
		fmt.Printf("  %-24s %d\n", k, tally[k])
	}
}

func sortedKeys(m map[string]uint64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

// stopTele flushes the telemetry outputs, reporting (but not failing on)
// write errors.
func stopTele() {
	if err := tele.Stop(); err != nil {
		fmt.Fprintln(os.Stderr, "icicle-perf:", err)
	}
}

func fatal(err error) {
	tele.Stop() // os.Exit skips defers; flush telemetry outputs first
	fmt.Fprintln(os.Stderr, "icicle-perf:", err)
	os.Exit(1)
}
