// Superblock engine smoke: differential runs of real kernels through the
// superblock threaded-code engine against the plain Step loop, asserting
// bit-identical architectural results, plus end-to-end sampled runs with
// the engine toggled to pin that every report byte is engine-independent.
// Randomized self-modifying coverage lives in
// internal/check.FuzzSuperblockDifferential; the engine itself is in
// internal/isa/superblock.go. This is what `make superblock-smoke` (part
// of `make ci`) runs, under the race detector.
package icicle_test

import (
	"testing"

	"icicle/internal/isa"
	"icicle/internal/kernel"
	"icicle/internal/mem"
	"icicle/internal/perf"
	"icicle/internal/rocket"
	"icicle/internal/sample"
)

// TestSuperblockSmokeKernels runs each kernel to completion on both
// functional engines and compares every architectural observable:
// registers, PC, instruction count, exit status, and the full memory
// image. The superblock run must also actually exercise the block cache
// (hits and translations), or the smoke would pass vacuously with the
// engine disabled.
func TestSuperblockSmokeKernels(t *testing.T) {
	const budget = 50_000_000
	for _, name := range []string{"towers", "qsort", "vvadd", "spmv", "fencemix"} {
		t.Run(name, func(t *testing.T) {
			k, err := kernel.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := k.Program()
			if err != nil {
				t.Fatal(err)
			}
			run := func(on bool) (*isa.CPU, *mem.Sparse) {
				m := mem.NewSparse()
				prog.LoadInto(m)
				c := isa.NewCPU(m, prog.Entry)
				c.SetSuperblocks(on)
				if _, err := c.Run(budget); err != nil {
					t.Fatalf("superblocks=%v: %v", on, err)
				}
				return c, m
			}
			sb, sbMem := run(true)
			ref, refMem := run(false)
			if !sb.Halted {
				t.Fatal("kernel did not halt within budget")
			}
			if sb.X != ref.X || sb.PC != ref.PC || sb.InstRet != ref.InstRet ||
				sb.Halted != ref.Halted || sb.ExitCode != ref.ExitCode {
				t.Errorf("architectural state diverges: pc %#x/%#x instret %d/%d exit %d/%d",
					sb.PC, ref.PC, sb.InstRet, ref.InstRet, sb.ExitCode, ref.ExitCode)
			}
			if sbMem.Checksum() != refMem.Checksum() {
				t.Error("memory image diverges")
			}
			st := sb.SuperblockStats()
			if st.Translations == 0 || st.Hits == 0 {
				t.Errorf("superblock cache unused (translations %d, hits %d)", st.Translations, st.Hits)
			}
		})
	}
}

// TestSuperblockSmokeSampledIdentical runs the same sampled simulation
// with the superblock engine on and off and requires the reports to be
// bit-identical: the engine is a pure speed optimization, invisible to
// every downstream consumer (which is also why it does not appear in the
// simulation memo key — see internal/sim).
func TestSuperblockSmokeSampledIdentical(t *testing.T) {
	defer func(old bool) { isa.DefaultSuperblocks = old }(isa.DefaultSuperblocks)
	k, err := kernel.ByName("towers")
	if err != nil {
		t.Fatal(err)
	}
	p := sample.Default()

	isa.DefaultSuperblocks = true
	resOn, repOn, bOn, err := perf.Sample(rocket.New(rocket.DefaultConfig(), k.MustProgram()), k, p, sample.Options{})
	if err != nil {
		t.Fatal(err)
	}
	isa.DefaultSuperblocks = false
	resOff, repOff, bOff, err := perf.Sample(rocket.New(rocket.DefaultConfig(), k.MustProgram()), k, p, sample.Options{})
	if err != nil {
		t.Fatal(err)
	}

	sameSampleReport(t, "towers", repOn, repOff)
	if repOn.EstCycles != repOff.EstCycles || repOn.CPI != repOff.CPI {
		t.Errorf("estimate diverges: cycles %d/%d CPI %v/%v",
			repOn.EstCycles, repOff.EstCycles, repOn.CPI, repOff.CPI)
	}
	if bOn != bOff {
		t.Errorf("TMA breakdown diverges across engines:\n on: %v\noff: %v", bOn, bOff)
	}
	for name, on := range resOn.Tally {
		if off := resOff.Tally[name]; on != off {
			t.Errorf("event %s diverges: %d vs %d", name, on, off)
		}
	}
}
