// Cache study (Rocket CS1, Fig. 7c): sweep the L1 data cache size under
// the deepsjeng proxy and watch the Backend Bound class absorb the lost
// slots — the kind of hardware design-space question TMA answers without
// the designer knowing pipeline internals.
package main

import (
	"fmt"
	"log"

	"icicle/internal/kernel"
	"icicle/internal/perf"
	"icicle/internal/rocket"
)

func main() {
	k, err := kernel.ByName("531.deepsjeng_r")
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("L1D sweep for 531.deepsjeng_r on Rocket:")
	var baseCycles uint64
	for _, kb := range []int{64, 32, 16, 8} {
		cfg := rocket.DefaultConfig()
		cfg.Hierarchy.L1D.SizeBytes = kb << 10
		res, b, err := perf.Run(rocket.New(cfg, k.MustProgram()), k)
		if err != nil {
			log.Fatal(err)
		}
		if baseCycles == 0 {
			baseCycles = res.Cycles
		}
		slowdown := float64(res.Cycles)/float64(baseCycles) - 1
		fmt.Printf("L1D %2d KiB: cycles %9d (%+5.1f%%)  backend %5.1f%% (core %4.1f%%, mem %4.1f%%)  d$-miss-rate %.2f%%\n",
			kb, res.Cycles, slowdown*100,
			b.Backend*100, b.CoreBound*100, b.MemBound*100,
			res.L1D.MissRate()*100)
	}
	fmt.Println("\nShrinking the cache moves slots into Backend/Mem Bound (Fig. 7c).")
}
