package boom

import (
	"testing"

	"icicle/internal/asm"
	"icicle/internal/kernel"
)

// recountLSQ is the O(ROB) scan that robLoads/robStores replace.
func recountLSQ(c *Core) (loads, stores int) {
	for i := 0; i < c.robCount; i++ {
		u := c.robAt(i)
		if u.isLoad {
			loads++
		}
		if u.isStore {
			stores++
		}
	}
	return loads, stores
}

// lsqChecker steps a core cycle by cycle (skip path on, as in RunCycles)
// and asserts after every step that the O(1) load/store-queue counters
// equal a recount of the ROB.
type lsqChecker struct {
	t         *testing.T
	c         *Core
	steps     int
	maxLoads  int
	maxStores int
	// extra, if set, runs further invariant checks wherever check does.
	extra func(where string)
}

func (k *lsqChecker) check(where string) {
	k.t.Helper()
	loads, stores := recountLSQ(k.c)
	if k.c.robLoads != loads || k.c.robStores != stores {
		k.t.Fatalf("%s, cycle %d: robLoads/robStores = %d/%d, ROB recount %d/%d",
			where, k.c.cycle, k.c.robLoads, k.c.robStores, loads, stores)
	}
	k.maxLoads = max(k.maxLoads, loads)
	k.maxStores = max(k.maxStores, stores)
	if k.extra != nil {
		k.extra(where)
	}
}

// run steps until the core drains or n more cycles have passed.
func (k *lsqChecker) run(n uint64) {
	k.t.Helper()
	end := k.c.cycle + n
	k.c.skipLimit = end
	for !k.c.done && k.c.cycle < end {
		if err := k.c.step(); err != nil {
			k.t.Fatal(err)
		}
		k.steps++
		k.check("after step")
	}
}

func (k *lsqChecker) tally(ev int) uint64 { return k.c.tally.Totals[ev] }

func newChecker(t *testing.T, cfg Config, src string) *lsqChecker {
	t.Helper()
	c, err := New(cfg, asm.MustAssemble(src))
	if err != nil {
		t.Fatal(err)
	}
	return &lsqChecker{t: t, c: c}
}

// TestLSQCountersMatchROB pins the O(1) LQ/STQ occupancy counters
// against the ROB scan across every path that adds or removes ROB
// entries: dispatch, commit, branch-mispredict flushes, fence.i flushes,
// store-ordering machine clears, store forwarding, and the
// ResetPipeline/Attach window sequence.
func TestLSQCountersMatchROB(t *testing.T) {
	const budget = 5_000_000
	aliasing := kernel.MemoryAliasing.Program(3)

	t.Run("branch-mispredict", func(t *testing.T) {
		k := newChecker(t, NewConfig(Large), kernel.BranchDense.Program(5))
		k.run(budget)
		if k.tally(k.c.ids.brMispredict) == 0 {
			t.Fatal("no branch mispredicts")
		}
	})

	t.Run("fence.i", func(t *testing.T) {
		k := newChecker(t, NewConfig(Large), `
			li   s0, 0x400000
			li   t0, 60
		loop:
			ld   a1, 0(s0)
			sd   a1, 8(s0)
			ld   a2, 8(s0)
			fence.i
			sd   a2, 16(s0)
			addi t0, t0, -1
			bnez t0, loop
			ecall
		`)
		k.run(budget)
		if k.tally(k.c.ids.fenceRetired) != 60 {
			t.Fatalf("fence.i retired %d, want 60", k.tally(k.c.ids.fenceRetired))
		}
	})

	t.Run("machine-clear", func(t *testing.T) {
		k := newChecker(t, NewConfig(Large), aliasing)
		k.run(budget)
		flush, br, fence := k.tally(k.c.ids.flush), k.tally(k.c.ids.brMispredict), k.tally(k.c.ids.fenceRetired)
		if flush <= br+fence {
			t.Fatalf("no store-ordering machine clears (flush %d, mispredict %d, fence %d)", flush, br, fence)
		}
		if k.maxLoads < 2 || k.maxStores < 2 {
			t.Fatalf("LSQ barely occupied: max %d loads, %d stores", k.maxLoads, k.maxStores)
		}
	})

	t.Run("store-forwarding", func(t *testing.T) {
		cfg := NewConfig(Large)
		cfg.StoreForwarding = true
		k := newChecker(t, cfg, aliasing)
		k.run(budget)
	})

	t.Run("windows", func(t *testing.T) {
		k := newChecker(t, NewConfig(Medium), aliasing)
		for w := 0; ; w++ {
			k.run(300)
			if k.c.done {
				break
			}
			if w == 100_000 {
				t.Fatal("window sequence did not finish")
			}
			if w%2 == 0 {
				k.c.ResetPipeline()
				k.check("after ResetPipeline")
			} else {
				k.c.Attach(k.c.CPU.Checkpoint())
				k.check("after Attach")
			}
			if k.c.robLoads != 0 || k.c.robStores != 0 {
				t.Fatalf("window %d: counters %d/%d survive the pipeline reset", w, k.c.robLoads, k.c.robStores)
			}
		}
	})

	t.Run("reset", func(t *testing.T) {
		k := newChecker(t, NewConfig(Large), aliasing)
		k.run(500)
		k.c.Reset(asm.MustAssemble(aliasing))
		k.check("after Reset")
		k.run(budget)
	})
}
