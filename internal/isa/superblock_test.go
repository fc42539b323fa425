package isa

import (
	"testing"
)

// twinCPUs builds two CPUs over independent copies of the same program,
// one with the superblock engine on and one stepping, so tests can run
// both and demand bit-identical results.
func twinCPUs(t *testing.T, insts []Inst) (sb, step *CPU, sbMem, stepMem simpleMem) {
	t.Helper()
	sb, sbMem = loadProgram(t, insts)
	sb.SetSuperblocks(true)
	step, stepMem = loadProgram(t, insts)
	step.SetSuperblocks(false)
	return sb, step, sbMem, stepMem
}

func assertSameState(t *testing.T, sb, step *CPU) {
	t.Helper()
	if sb.X != step.X {
		t.Errorf("register files differ:\n superblock %v\n step       %v", sb.X, step.X)
	}
	if sb.PC != step.PC {
		t.Errorf("PC: superblock %#x, step %#x", sb.PC, step.PC)
	}
	if sb.InstRet != step.InstRet {
		t.Errorf("InstRet: superblock %d, step %d", sb.InstRet, step.InstRet)
	}
	if sb.Halted != step.Halted || sb.ExitCode != step.ExitCode {
		t.Errorf("halt state: superblock (%v, %d), step (%v, %d)",
			sb.Halted, sb.ExitCode, step.Halted, step.ExitCode)
	}
	if sb.reservation != step.reservation {
		t.Errorf("reservation: superblock %d, step %d", sb.reservation, step.reservation)
	}
}

// runTwins drives both CPUs to completion (or the instruction budget)
// and compares architectural state plus full Retired streams.
func runTwins(t *testing.T, sb, step *CPU, budget uint64) {
	t.Helper()
	var sbTrace, stepTrace []Retired
	if _, err := sb.RunForTraced(budget, func(r Retired) { sbTrace = append(sbTrace, r) }); err != nil {
		t.Fatalf("superblock engine: %v", err)
	}
	if _, err := step.RunForTraced(budget, func(r Retired) { stepTrace = append(stepTrace, r) }); err != nil {
		t.Fatalf("step engine: %v", err)
	}
	assertSameState(t, sb, step)
	if len(sbTrace) != len(stepTrace) {
		t.Fatalf("trace lengths differ: superblock %d, step %d", len(sbTrace), len(stepTrace))
	}
	for i := range sbTrace {
		if sbTrace[i] != stepTrace[i] {
			t.Fatalf("Retired[%d] differs:\n superblock %+v\n step       %+v",
				i, sbTrace[i], stepTrace[i])
		}
	}
}

// TestSuperblockRunMatchesStep runs a branchy, memory-heavy program —
// loops, taken/not-taken branches, calls, loads/stores, lr/sc, amo —
// through both engines and demands identical state and Retired streams.
func TestSuperblockRunMatchesStep(t *testing.T) {
	prog := []Inst{
		{Op: ADDI, Rd: T0, Imm: 0x200},          // 0:  t0 = data base
		{Op: ADDI, Rd: T1, Imm: 10},             // 4:  t1 = loop count
		{Op: ADDI, Rd: A0, Imm: 0},              // 8:  a0 = acc
		{Op: AUIPC, Rd: T2, Imm: 1},             // 12: pc-relative constant
		{Op: ADD, Rd: A0, Rs1: A0, Rs2: T1},     // 16: loop: acc += t1
		{Op: SW, Rs1: T0, Rs2: A0, Imm: 0},      // 20: spill acc
		{Op: LW, Rd: A1, Rs1: T0, Imm: 0},       // 24: reload
		{Op: ADDI, Rd: T1, Rs1: T1, Imm: -1},    // 28: t1--
		{Op: BNE, Rs1: T1, Rs2: X0, Imm: -12},   // 32: loop while t1 != 0
		{Op: LRD, Rd: A2, Rs1: T0},              // 36: reserve
		{Op: SCD, Rd: A3, Rs1: T0, Rs2: A0},     // 40: sc (succeeds)
		{Op: AMOADDW, Rd: A4, Rs1: T0, Rs2: T1}, // 44: amo on the same word
		{Op: JAL, Rd: RA, Imm: 8},               // 48: call over next inst
		{Op: ADDI, Rd: A0, Rs1: A0, Imm: 0x111}, // 52: skipped
		{Op: JALR, Rd: X0, Rs1: RA, Imm: 8},     // 56: ra=52, land on 60
		{Op: MUL, Rd: A5, Rs1: A0, Rs2: A1},     // 60
		{Op: DIV, Rd: A6, Rs1: A5, Rs2: T2},     // 64
		{Op: ECALL},                             // 68
	}
	sb, step, _, _ := twinCPUs(t, prog)
	runTwins(t, sb, step, 10_000)
	if !sb.Halted {
		t.Fatal("program did not halt")
	}
	st := sb.SuperblockStats()
	if st.Hits == 0 || st.Translations == 0 {
		t.Errorf("superblock cache unused: %+v", st)
	}
}

// TestSuperblockPartialOverlapStore pins the store-invalidation
// contract for self-modifying code: single-byte stores that partially
// overlap a later instruction of the currently executing block must
// kill the block so the modified bytes are refetched, matching Step's
// per-word decode invalidation bit for bit.
func TestSuperblockPartialOverlapStore(t *testing.T) {
	// Case 1: rewrite the high immediate byte (byte 3) of the ADDI at
	// pc 24, turning imm 0x064 into 0x124 before it executes.
	t.Run("imm-byte", func(t *testing.T) {
		prog := []Inst{
			{Op: ADDI, Rd: T0, Imm: 0x12},       // 0: value byte
			{Op: ADDI, Rd: T1, Imm: 27},         // 4: &inst24 + 3
			{Op: SB, Rs1: T1, Rs2: T0, Imm: 0},  // 8: clobber byte 3 of pc 24
			{Op: ADDI, Rd: A0, Imm: 1},          // 12
			{Op: ADDI, Rd: A0, Rs1: A0, Imm: 2}, // 16
			{Op: ADDI, Rd: A0, Rs1: A0, Imm: 4}, // 20
			{Op: ADDI, Rd: A1, Imm: 0x064},      // 24: imm rewritten to 0x124
			{Op: ECALL},                         // 28
		}
		sb, step, _, _ := twinCPUs(t, prog)
		runTwins(t, sb, step, 1000)
		if got := step.Reg(A1); got != 0x124 {
			t.Fatalf("step engine saw a1 = %#x, want 0x124 (store missed the imm field?)", got)
		}
		if inv := sb.SuperblockStats().Invalidations; inv == 0 {
			t.Error("expected at least one in-flight superblock invalidation")
		}
		if sb.sbKilled {
			t.Error("sbKilled left set after block exit")
		}
	})
	// Case 2: rewrite the opcode byte (byte 0) of the ADDI at pc 12,
	// turning it into a LUI.
	t.Run("opcode-byte", func(t *testing.T) {
		prog := []Inst{
			{Op: ADDI, Rd: T0, Imm: 0x37},      // 0: LUI opcode byte
			{Op: ADDI, Rd: T1, Imm: 12},        // 4: &inst12
			{Op: SB, Rs1: T1, Rs2: T0, Imm: 0}, // 8: clobber byte 0 of pc 12
			{Op: ADDI, Rd: A0, Imm: 1},         // 12: becomes LUI a0, 0x100
			{Op: ECALL},                        // 16
		}
		sb, step, _, _ := twinCPUs(t, prog)
		runTwins(t, sb, step, 1000)
		if got := step.Reg(A0); got != 0x100000 {
			t.Fatalf("step engine saw a0 = %#x, want 0x100000 (rewrite did not land?)", got)
		}
	})
	// Case 3: a store into a *different*, already-translated (and
	// already-executed) block must not kill the executing block but must
	// invalidate the other one before it runs again.
	t.Run("cross-block", func(t *testing.T) {
		prog := []Inst{
			{Op: ADDI, Rd: T0, Imm: 0x37},         // 0:  LUI opcode byte
			{Op: ADDI, Rd: T1, Imm: 24},           // 4:  &inst24
			{Op: ADDI, Rd: T2, Imm: 2},            // 8:  two passes
			{Op: JAL, Rd: X0, Imm: 12},            // 12: enter the loop body first
			{Op: SB, Rs1: T1, Rs2: T0, Imm: 0},    // 16: clobber byte 0 of pc 24
			{Op: JAL, Rd: X0, Imm: 4},             // 20: back to the body
			{Op: ADDI, Rd: A0, Rs1: A0, Imm: 1},   // 24: becomes LUI a0, 0x150
			{Op: ADDI, Rd: T2, Rs1: T2, Imm: -1},  // 28
			{Op: BNE, Rs1: T2, Rs2: X0, Imm: -16}, // 32: loop via the SB block
			{Op: ECALL},                           // 36
		}
		sb, step, _, _ := twinCPUs(t, prog)
		runTwins(t, sb, step, 1000)
		// The rewritten word is 0x00150537: the old rs1/funct3 fields fold
		// into the LUI immediate, so a0 = 0x150 << 12.
		if got := step.Reg(A0); got != 0x150000 {
			t.Fatalf("step engine saw a0 = %#x, want 0x150000", got)
		}
	})
}

// TestSuperblockFlushDecodeRevalidates pins the FlushDecode contract:
// after memory is mutated behind the CPU's back (the plan engine's
// frame-delta application), FlushDecode must make stale superblocks
// re-verify, so retranslated code is picked up without a Reset.
func TestSuperblockFlushDecodeRevalidates(t *testing.T) {
	prog := []Inst{
		{Op: ADDI, Rd: A0, Rs1: A0, Imm: 1}, // 0: a0++
		{Op: JAL, Rd: X0, Imm: -4},          // 4: loop
	}
	c, m := loadProgram(t, prog)
	c.SetSuperblocks(true)
	if _, err := c.RunFor(10); err != nil {
		t.Fatal(err)
	}
	if got := c.Reg(A0); got != 5 {
		t.Fatalf("a0 = %d after 10 insts, want 5", got)
	}
	// Rewrite the increment to +2 directly in memory (bypassing
	// storeMem, as an external delta application would), then flush.
	w, err := Encode(Inst{Op: ADDI, Rd: A0, Rs1: A0, Imm: 2})
	if err != nil {
		t.Fatal(err)
	}
	m.Store(0, 4, uint64(w))
	c.FlushDecode()
	before := c.SuperblockStats()
	if _, err := c.RunFor(10); err != nil {
		t.Fatal(err)
	}
	if got := c.Reg(A0); got != 15 {
		t.Fatalf("a0 = %d after rewritten loop, want 15", got)
	}
	after := c.SuperblockStats()
	if after.Invalidations == before.Invalidations {
		t.Error("expected a verify-fail invalidation after FlushDecode + rewrite")
	}
}

// TestSuperblockEpochRestampIsAllocFree: a flush with *unchanged* code
// must revalidate blocks by word comparison and restamp them without
// retranslating (the pooled-core steady state).
func TestSuperblockEpochRestampIsAllocFree(t *testing.T) {
	prog := []Inst{
		{Op: ADDI, Rd: A0, Rs1: A0, Imm: 1},
		{Op: JAL, Rd: X0, Imm: -4},
	}
	c, _ := loadProgram(t, prog)
	c.SetSuperblocks(true)
	if _, err := c.RunFor(10); err != nil {
		t.Fatal(err)
	}
	trBefore := c.SuperblockStats().Translations
	c.FlushDecode()
	if _, err := c.RunFor(10); err != nil {
		t.Fatal(err)
	}
	if tr := c.SuperblockStats().Translations; tr != trBefore {
		t.Errorf("flush over unchanged code retranslated (%d -> %d), want restamp", trBefore, tr)
	}
}

// TestSuperblockBudgetMidBlock: RunFor must honor an instruction budget
// that ends inside a block, leaving PC and InstRet exactly where a Step
// loop would.
func TestSuperblockBudgetMidBlock(t *testing.T) {
	prog := []Inst{
		{Op: ADDI, Rd: A0, Imm: 1},
		{Op: ADDI, Rd: A1, Imm: 2},
		{Op: ADDI, Rd: A2, Imm: 3},
		{Op: ADDI, Rd: A3, Imm: 4},
		{Op: ECALL},
	}
	sb, step, _, _ := twinCPUs(t, prog)
	for i := 0; i < 5; i++ {
		if _, err := sb.RunFor(1); err != nil {
			t.Fatal(err)
		}
		if _, err := step.RunFor(1); err != nil {
			t.Fatal(err)
		}
		assertSameState(t, sb, step)
	}
	if !sb.Halted {
		t.Fatal("program did not halt")
	}
}

// TestSuperblockUntranslatableHead: CSR and system instructions run via
// Step (sentinel blocks) with identical semantics, including the halt
// path keeping PC at the faulting instruction.
func TestSuperblockUntranslatableHead(t *testing.T) {
	prog := []Inst{
		{Op: CSRRS, Rd: A1, Imm: 0xC00}, // cycle CSR (reads 0: no CSR file)
		{Op: ADDI, Rd: A0, Imm: 7},
		{Op: ECALL},
	}
	sb, step, _, _ := twinCPUs(t, prog)
	runTwins(t, sb, step, 100)
	if !sb.Halted || sb.ExitCode != 7 {
		t.Fatalf("halt state: %v exit %d, want halted exit 7", sb.Halted, sb.ExitCode)
	}
	if sb.PC != 8 {
		t.Fatalf("halted PC = %#x, want 8 (ecall does not advance)", sb.PC)
	}
}

// TestSuperblockResetReuse: Reset + identical program reuses translated
// blocks via epoch restamp; Reset + different program retranslates.
func TestSuperblockResetReuse(t *testing.T) {
	prog := []Inst{
		{Op: ADDI, Rd: A0, Imm: 42},
		{Op: ECALL},
	}
	c, m := loadProgram(t, prog)
	c.SetSuperblocks(true)
	if _, err := c.Run(100); err != nil {
		t.Fatal(err)
	}
	tr := c.SuperblockStats().Translations
	c.Reset(0)
	if _, err := c.Run(100); err != nil {
		t.Fatal(err)
	}
	if c.ExitCode != 42 {
		t.Fatalf("exit = %d, want 42", c.ExitCode)
	}
	if got := c.SuperblockStats().Translations; got != tr {
		t.Errorf("reset over unchanged program retranslated (%d -> %d)", tr, got)
	}
	// Now swap the program image (as a pooled core reusing the CPU for a
	// different kernel would) and make sure the old translation cannot
	// leak through.
	w, err := Encode(Inst{Op: ADDI, Rd: A0, Imm: 13})
	if err != nil {
		t.Fatal(err)
	}
	m.Store(0, 4, uint64(w))
	c.Reset(0)
	if _, err := c.Run(100); err != nil {
		t.Fatal(err)
	}
	if c.ExitCode != 13 {
		t.Fatalf("exit after reload = %d, want 13 (stale superblock executed?)", c.ExitCode)
	}
}

// TestSuperblockDisabledMatches: the ablation flag produces the same
// results through Run.
func TestSuperblockDisabledMatches(t *testing.T) {
	prog := []Inst{
		{Op: ADDI, Rd: T1, Imm: 5},
		{Op: ADDI, Rd: A0, Rs1: A0, Imm: 3}, // loop body
		{Op: ADDI, Rd: T1, Rs1: T1, Imm: -1},
		{Op: BNE, Rs1: T1, Rs2: X0, Imm: -8},
		{Op: ECALL},
	}
	sb, step, _, _ := twinCPUs(t, prog)
	if _, err := sb.Run(1000); err != nil {
		t.Fatal(err)
	}
	if _, err := step.Run(1000); err != nil {
		t.Fatal(err)
	}
	assertSameState(t, sb, step)
	if sb.ExitCode != 15 {
		t.Fatalf("exit = %d, want 15", sb.ExitCode)
	}
}

// TestSuperblockTableGrows runs a loop over two blocks whose PCs share a
// slot in the initial 4096-entry table. Once the translated range
// outgrows the table it doubles, so both blocks stay cached; when the
// range is beyond the cap the table stops at sbMaxSize and the blocks
// keep evicting each other. Both engines must agree either way.
func TestSuperblockTableGrows(t *testing.T) {
	place := func(m simpleMem, at uint64, insts ...Inst) {
		for i, in := range insts {
			w, err := Encode(in)
			if err != nil {
				t.Fatalf("encode %v: %v", in, err)
			}
			m.Store(at+uint64(4*i), 4, uint64(w))
		}
	}
	const iters = 100
	for _, tc := range []struct {
		name       string
		far        uint64 // second block's PC
		wantSize   int
		wantTransl uint64 // the two blocks, retranslated on every eviction, and ECALL
	}{
		{"near", 0x4000, 2 * sbMinSize, 3},
		{"beyond-cap", 0x1000000, sbMaxSize, 2*iters + 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var cpus [2]*CPU
			for i, on := range []bool{true, false} {
				m := simpleMem{}
				place(m, 0,
					Inst{Op: ADDI, Rd: T0, Rs1: T0, Imm: 1},
					Inst{Op: LUI, Rd: T2, Imm: int64(tc.far >> 12)},
					Inst{Op: JALR, Rd: X0, Rs1: T2})
				place(m, tc.far,
					Inst{Op: ADDI, Rd: T1, Imm: iters},
					Inst{Op: BGE, Rs1: T0, Rs2: T1, Imm: 8},
					Inst{Op: JALR, Rd: X0, Rs1: X0},
					Inst{Op: ECALL})
				cpus[i] = NewCPU(m, 0)
				cpus[i].SetSuperblocks(on)
			}
			sb := cpus[0]
			runTwins(t, sb, cpus[1], 10*iters)
			if !sb.Halted || sb.X[T0] != iters {
				t.Fatalf("loop did not finish: halted %v, t0 %d", sb.Halted, sb.X[T0])
			}
			if len(sb.sb) != tc.wantSize || sb.sbMask != uint64(tc.wantSize-1) {
				t.Errorf("block table has %d entries (mask %#x), want %d", len(sb.sb), sb.sbMask, tc.wantSize)
			}
			if n := sb.SuperblockStats().Translations; n != tc.wantTransl {
				t.Errorf("%d translations, want %d", n, tc.wantTransl)
			}
		})
	}
}
