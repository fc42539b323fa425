// Branch inversion (Rocket CS2 / BOOM CS, Fig. 7 d/n): the same pair of
// workloads shows opposite effects on the two cores because their
// predictors cold-predict opposite directions — a result that only a
// correct Bad Speculation class can explain.
package main

import (
	"fmt"
	"log"

	"icicle/internal/boom"
	"icicle/internal/core"
	"icicle/internal/kernel"
	"icicle/internal/perf"
	"icicle/internal/rocket"
)

func main() {
	brmiss, err := kernel.ByName("brmiss")
	if err != nil {
		log.Fatal(err)
	}
	inv, err := kernel.ByName("brmiss_inv")
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("== Rocket (BHT cold-predicts not-taken) ==")
	show := func(name string, cycles uint64, b core.Breakdown) {
		fmt.Printf("%-11s cycles %7d  ret %5.1f%%  badspec %5.1f%%  frontend %5.1f%%\n",
			name, cycles, b.Retiring*100, b.BadSpec*100, b.Frontend*100)
	}
	for _, k := range []*kernel.Kernel{brmiss, inv} {
		res, b, err := perf.Run(rocket.New(rocket.DefaultConfig(), k.MustProgram()), k)
		if err != nil {
			log.Fatal(err)
		}
		show(k.Name, res.Cycles, b)
	}
	fmt.Println("→ the taken chain mispredicts every branch; inverting it fixes Rocket")

	fmt.Println("\n== BOOM (TAGE base cold-predicts taken) ==")
	for _, k := range []*kernel.Kernel{brmiss, inv} {
		res, b, err := perf.Run(boom.MustNew(boom.NewConfig(boom.Large), k.MustProgram()), k)
		if err != nil {
			log.Fatal(err)
		}
		show(k.Name, res.Cycles, b)
	}
	fmt.Println("→ the opposite effect: BOOM predicts the taken chain (0% Bad Spec,")
	fmt.Println("  cost shows as Frontend resteers) and mispredicts the inverted one")
}
