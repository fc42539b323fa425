package rocket_test

import (
	"testing"

	"icicle/internal/asm"
	"icicle/internal/kernel"
	"icicle/internal/perf"
	"icicle/internal/pmu"
	"icicle/internal/rocket"
)

func run(t *testing.T, src string) rocket.Result {
	t.Helper()
	res, err := rocket.New(rocket.DefaultConfig(), asm.MustAssemble(src)).Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestALULoopIPCNearOne(t *testing.T) {
	res := run(t, `
		li   t0, 20000
	loop:
		addi a1, a1, 1
		addi a2, a2, 1
		addi t0, t0, -1
		bnez t0, loop
		ecall
	`)
	if ipc := res.IPC(); ipc < 0.97 || ipc > 1.0 {
		t.Fatalf("ALU loop IPC = %.3f, want ≈1", ipc)
	}
}

func TestAllKernelsExecuteCorrectlyUnderTiming(t *testing.T) {
	// The timing model must not corrupt architectural execution, no
	// matter how it squashes, replays, and refetches.
	for _, k := range kernel.All() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			res, _, err := perf.Run(rocket.New(rocket.DefaultConfig(), k.MustProgram()), k)
			if err != nil {
				t.Fatal(err)
			}
			if k.Expected != 0 && res.Exit != k.Expected {
				t.Fatalf("exit = %#x, want %#x", res.Exit, k.Expected)
			}
			if res.Insts == 0 || res.Cycles < res.Insts {
				t.Fatalf("implausible: %d insts in %d cycles (max 1 IPC)", res.Insts, res.Cycles)
			}
		})
	}
}

func TestSlotAccountingInvariants(t *testing.T) {
	for _, name := range []string{"qsort", "memcpy", "coremark", "towers"} {
		k, err := kernel.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		res, b, err := perf.Run(rocket.New(rocket.DefaultConfig(), k.MustProgram()), k)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Tally[rocket.EvCycles]; got != res.Cycles {
			t.Fatalf("%s: cycle event %d != cycles %d", name, got, res.Cycles)
		}
		if res.Tally[rocket.EvInstIssued] < res.Tally[rocket.EvInstRet] {
			t.Fatalf("%s: issued < retired", name)
		}
		if res.Tally[rocket.EvInstRet] != res.Insts {
			t.Fatalf("%s: retired tally mismatch", name)
		}
		// Every cycle is at most one of: issue, bubble, recovering, stall.
		busy := res.Tally[rocket.EvInstIssued] + res.Tally[rocket.EvFetchBubbles] +
			res.Tally[rocket.EvRecovering]
		if busy > res.Cycles {
			t.Fatalf("%s: issue+bubble+recovering %d exceeds cycles %d", name, busy, res.Cycles)
		}
		for _, v := range []float64{b.Retiring, b.BadSpec, b.Frontend, b.Backend} {
			if v < -1e-9 || v > 1+1e-9 {
				t.Fatalf("%s: class out of range: %+v", name, b)
			}
		}
	}
}

func TestLoadMissEventsAndBlocking(t *testing.T) {
	// Stride walk over 1 MiB: every load misses.
	res := run(t, `
		li   s0, 0x400000
		li   t0, 2000
		li   t1, 0
	loop:
		slli t2, t1, 9        # 512 B stride
		add  t2, t2, s0
		ld   t3, 0(t2)
		addi t1, t1, 1
		addi t0, t0, -1
		bnez t0, loop
		ecall
	`)
	if res.Tally[rocket.EvDCacheMiss] < 1900 {
		t.Fatalf("dcache misses = %d, want ≈2000", res.Tally[rocket.EvDCacheMiss])
	}
	if res.Tally[rocket.EvDCacheBlocked] < 10*res.Tally[rocket.EvDCacheMiss] {
		t.Fatalf("dcache-blocked %d implausibly small for %d misses",
			res.Tally[rocket.EvDCacheBlocked], res.Tally[rocket.EvDCacheMiss])
	}
	if res.Tally[rocket.EvReplay] != res.Tally[rocket.EvDCacheMiss] {
		t.Fatalf("replays %d != load misses %d", res.Tally[rocket.EvReplay], res.Tally[rocket.EvDCacheMiss])
	}
}

func TestLoadUseInterlock(t *testing.T) {
	res := run(t, `
		li   s0, 0x400000
		li   t0, 5000
	loop:
		ld   t1, 0(s0)
		add  t2, t1, t1       # immediate use: 1-cycle interlock
		addi t0, t0, -1
		bnez t0, loop
		ecall
	`)
	if res.Tally[rocket.EvLoadUseInterlock] < 4900 {
		t.Fatalf("load-use interlocks = %d, want ≈5000", res.Tally[rocket.EvLoadUseInterlock])
	}
}

func TestMulDivInterlock(t *testing.T) {
	res := run(t, `
		li   t0, 3000
		li   t3, 7
	loop:
		mul  t1, t3, t3
		add  t2, t1, t1       # waits for the multiplier
		addi t0, t0, -1
		bnez t0, loop
		ecall
	`)
	if res.Tally[rocket.EvMulDivInterlock] < 3000 {
		t.Fatalf("muldiv interlocks = %d", res.Tally[rocket.EvMulDivInterlock])
	}
}

func TestBranchMispredictsOnColdChain(t *testing.T) {
	k, _ := kernel.ByName("brmiss")
	res, _, err := perf.Run(rocket.New(rocket.DefaultConfig(), k.MustProgram()), k)
	if err != nil {
		t.Fatal(err)
	}
	bm := res.Tally[rocket.EvBrMispredict]
	if bm < 480 {
		t.Fatalf("mispredicts = %d, want ≈500 (cold BHT, all taken)", bm)
	}
	// Recovering spans at least the redirect penalty per mispredict, and
	// may extend through late-prefetch refills of the redirect target
	// (the §IV-A attribution of target-miss refills to Bad Speculation).
	rec := res.Tally[rocket.EvRecovering]
	if rec < 3*bm-100 {
		t.Fatalf("recovering %d below 3×%d", rec, bm)
	}
	if rec > 40*bm {
		t.Fatalf("recovering %d implausibly large for %d mispredicts", rec, bm)
	}
}

func TestInvertedChainPredictsPerfectly(t *testing.T) {
	k, _ := kernel.ByName("brmiss_inv")
	res, _, err := perf.Run(rocket.New(rocket.DefaultConfig(), k.MustProgram()), k)
	if err != nil {
		t.Fatal(err)
	}
	if bm := res.Tally[rocket.EvBrMispredict]; bm > 10 {
		t.Fatalf("mispredicts = %d on never-taken chain", bm)
	}
}

func TestFetchBubblesSuppressedDuringRecovery(t *testing.T) {
	// Trace-level invariant, checked via the cycle hook: fetch-bubble and
	// recovering must never assert in the same cycle (§IV-A).
	k, _ := kernel.ByName("qsort")
	c := rocket.New(rocket.DefaultConfig(), k.MustProgram())
	fb := rocket.Events.MustIndex(rocket.EvFetchBubbles)
	rec := rocket.Events.MustIndex(rocket.EvRecovering)
	viol := 0
	c.SetCycleHook(func(cycle uint64, s pmu.Sample) {
		if s.Any(fb) && s.Any(rec) {
			viol++
		}
	})
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if viol != 0 {
		t.Fatalf("%d cycles assert both fetch-bubble and recovering", viol)
	}
}

func TestPMUCSRPathMatchesExactTallies(t *testing.T) {
	// Counters programmed through the CSR interface (AddWires) must agree
	// with the simulator's exact tallies.
	k, _ := kernel.ByName("mergesort")
	cfg := rocket.DefaultConfig()
	c := rocket.New(cfg, k.MustProgram())
	plan := perf.TMAPlan(rocket.EvInstIssued, rocket.EvFetchBubbles,
		rocket.EvRecovering, rocket.EvICacheBlocked, rocket.EvDCacheBlocked)
	if err := plan.Apply(c.PMU); err != nil {
		t.Fatal(err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{rocket.EvInstIssued, rocket.EvFetchBubbles,
		rocket.EvRecovering, rocket.EvICacheBlocked, rocket.EvDCacheBlocked} {
		if got, want := c.PMU.Read(i), res.Tally[name]; got != want {
			t.Errorf("%s: PMU %d != tally %d", name, got, want)
		}
	}
	if c.PMU.Cycles() != res.Cycles {
		t.Errorf("mcycle %d != cycles %d", c.PMU.Cycles(), res.Cycles)
	}
	if c.PMU.Instret() != res.Insts {
		t.Errorf("minstret %d != insts %d", c.PMU.Instret(), res.Insts)
	}
}

func TestCycleHookCalledEveryCycle(t *testing.T) {
	k, _ := kernel.ByName("vvadd")
	c := rocket.New(rocket.DefaultConfig(), k.MustProgram())
	var calls uint64
	c.SetCycleHook(func(cycle uint64, s pmu.Sample) {
		if cycle != calls {
			t.Fatalf("hook cycle %d, want %d", cycle, calls)
		}
		calls++
	})
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if calls != res.Cycles {
		t.Fatalf("hook called %d times for %d cycles", calls, res.Cycles)
	}
}

func TestSmallerL1DRaisesBackendBound(t *testing.T) {
	// The Rocket CS1 mechanism: shrinking L1D must slow deepsjeng and
	// grow the Backend class.
	k, err := kernel.ByName("531.deepsjeng_r")
	if err != nil {
		t.Fatal(err)
	}
	big := rocket.DefaultConfig()
	small := rocket.DefaultConfig()
	small.Hierarchy.L1D.SizeBytes = 16 << 10
	resBig, bBig, err := perf.Run(rocket.New(big, k.MustProgram()), k)
	if err != nil {
		t.Fatal(err)
	}
	resSmall, bSmall, err := perf.Run(rocket.New(small, k.MustProgram()), k)
	if err != nil {
		t.Fatal(err)
	}
	if resSmall.Cycles <= resBig.Cycles {
		t.Fatalf("16 KiB L1D not slower: %d vs %d", resSmall.Cycles, resBig.Cycles)
	}
	if bSmall.Backend <= bBig.Backend {
		t.Fatalf("backend did not grow: %.3f vs %.3f", bSmall.Backend, bBig.Backend)
	}
}

func TestMaxCyclesGuard(t *testing.T) {
	cfg := rocket.DefaultConfig()
	cfg.MaxCycles = 100
	_, err := rocket.New(cfg, asm.MustAssemble(`
	loop:
		j loop
	`)).Run()
	if err == nil {
		t.Fatal("infinite loop terminated")
	}
}

func TestAtomicEventAndTiming(t *testing.T) {
	k, err := kernel.ByName("histogram")
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := perf.Run(rocket.New(rocket.DefaultConfig(), k.MustProgram()), k)
	if err != nil {
		t.Fatal(err)
	}
	if res.Exit != k.Expected {
		t.Fatalf("histogram checksum %#x != %#x", res.Exit, k.Expected)
	}
	// One atomic per input byte.
	if got := res.Tally[rocket.EvAtomic]; got != 8192 {
		t.Fatalf("atomic events = %d, want 8192", got)
	}
}
