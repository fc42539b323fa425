// Quickstart: run a CoreMark-like workload on LargeBOOM with the PMU
// programmed through the CSR interface, and print the hierarchical TMA
// breakdown — the minimal end-to-end use of the Icicle stack.
package main

import (
	"fmt"
	"log"

	"icicle/internal/boom"
	"icicle/internal/kernel"
	"icicle/internal/perf"
)

func main() {
	// 1. Pick a workload. Kernels are self-checking RV64 programs; see
	//    `icicle-perf -list` for the full suite.
	k, err := kernel.ByName("coremark")
	if err != nil {
		log.Fatal(err)
	}

	// 2. Build a core for the workload's program. Table IV's five BOOM
	//    sizes are available, plus Rocket via rocket.New; both satisfy
	//    perf.Core, so everything below works on either.
	cfg := boom.NewConfig(boom.Large)
	c, err := boom.New(cfg, k.MustProgram())
	if err != nil {
		log.Fatal(err)
	}

	// 3. Simulate and evaluate TMA. perf.Run resets the core, simulates
	//    cycle by cycle while the PMU counts the TMA events, and applies
	//    the Table II model.
	res, breakdown, err := perf.Run(c, k)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%s on %s: %d instructions in %d cycles\n",
		k.Name, cfg.Name, res.Insts, res.Cycles)
	fmt.Print(breakdown)
	fmt.Printf("dominant bottleneck: %s\n", breakdown.Dominant())
}
