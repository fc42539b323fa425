package isa

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// validOps lists ops that have a binary encoding (all of them except the
// ILLEGAL sentinel).
func validOps() []Op {
	ops := make([]Op, 0, NumOps-1)
	for op := LUI; op < Op(NumOps); op++ {
		ops = append(ops, op)
	}
	return ops
}

// randInst builds a random, encodable instruction for op.
func randInst(r *rand.Rand, op Op) Inst {
	in := Inst{
		Op:  op,
		Rd:  Reg(r.Intn(32)),
		Rs1: Reg(r.Intn(32)),
		Rs2: Reg(r.Intn(32)),
	}
	switch op {
	case LUI, AUIPC:
		in.Imm = int64(r.Intn(1<<20)) - 1<<19
	case JAL:
		in.Imm = (int64(r.Intn(1<<20)) - 1<<19) * 2
	case SLLI, SRLI, SRAI:
		in.Imm = int64(r.Intn(64))
	case SLLIW, SRLIW, SRAIW:
		in.Imm = int64(r.Intn(32))
	case FENCE, FENCEI, ECALL, EBREAK:
		return Inst{Op: op}
	case LRW, LRD:
		in.Rs2, in.Imm = 0, 0
		return in
	case CSRRW, CSRRS, CSRRC:
		in.Imm = int64(r.Intn(1 << 12))
	case CSRRWI, CSRRSI, CSRRCI:
		in.Imm = int64(r.Intn(1 << 12))
		in.Rs1 = 0
		in.CSRImm = uint8(r.Intn(32))
	default:
		switch {
		case op.IsBranch():
			in.Imm = (int64(r.Intn(1<<12)) - 1<<11) * 2
		case rTypeHas(op), op.Class() == ClassAtomic:
			in.Imm = 0
		default: // I/S-type
			in.Imm = int64(r.Intn(1<<12)) - 1<<11
		}
	}
	return in
}

func rTypeHas(op Op) bool {
	_, ok := rTypeEnc[op]
	if !ok {
		_, ok = r32TypeEnc[op]
	}
	return ok
}

// canonical clears fields that do not survive an encode/decode round trip
// because the encoding has no bits for them.
func canonical(in Inst) Inst {
	if !in.Op.WritesRd() && in.Op.Class() != ClassCSR {
		in.Rd = 0
	}
	switch in.Op {
	case LUI, AUIPC, JAL:
		in.Rs1, in.Rs2 = 0, 0
	case FENCE, FENCEI, ECALL, EBREAK:
		return Inst{Op: in.Op}
	case CSRRWI, CSRRSI, CSRRCI:
		in.Rs1, in.Rs2 = 0, 0
	}
	if !in.Op.ReadsRs2() && in.Op.Class() != ClassStore && !in.Op.IsBranch() {
		in.Rs2 = 0
	}
	switch in.Op.Class() {
	case ClassBranch, ClassStore:
		// no rd
	default:
		if in.Op != CSRRWI && in.Op != CSRRSI && in.Op != CSRRCI {
			in.CSRImm = 0
		}
	}
	return in
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, op := range validOps() {
		for i := 0; i < 200; i++ {
			in := randInst(r, op)
			w, err := Encode(in)
			if err != nil {
				t.Fatalf("%v: encode: %v", in, err)
			}
			got := Decode(w)
			if got != canonical(in) {
				t.Fatalf("round trip %v: encoded %08x decoded %v (want %v)", in, w, got, canonical(in))
			}
		}
	}
}

func TestDecodeIllegal(t *testing.T) {
	for _, w := range []uint32{0, 0xffffffff, 0x0000007f, 0x00007057} {
		if got := Decode(w); got.Op != ILLEGAL {
			t.Errorf("Decode(%#x) = %v, want illegal", w, got)
		}
	}
}

func TestEncodeRangeChecks(t *testing.T) {
	cases := []Inst{
		{Op: ADDI, Imm: 4096},
		{Op: ADDI, Imm: -4097},
		{Op: BEQ, Imm: 1}, // odd branch offset
		{Op: JAL, Imm: 1 << 22},
		{Op: SLLI, Imm: 64},
		{Op: LUI, Imm: 1 << 20},
	}
	for _, in := range cases {
		if _, err := Encode(in); err == nil {
			t.Errorf("Encode(%v) succeeded, want range error", in)
		}
	}
}

func TestImmediateExtractorsQuick(t *testing.T) {
	// B-format immediate: encode then extract must be identity over the
	// representable range.
	f := func(raw int16) bool {
		imm := int64(raw) &^ 1 // even, fits 13 bits signed since int16/2*2
		in := Inst{Op: BEQ, Rs1: 1, Rs2: 2, Imm: int64(imm) / 4 * 2}
		w, err := Encode(in)
		if err != nil {
			return true // out of range inputs are skipped
		}
		return Decode(w).Imm == in.Imm
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// simpleMem is a flat test memory.
type simpleMem map[uint64]byte

func (m simpleMem) Load(addr uint64, size int) uint64 {
	var v uint64
	for i := 0; i < size; i++ {
		v |= uint64(m[addr+uint64(i)]) << (8 * i)
	}
	return v
}

func (m simpleMem) Store(addr uint64, size int, val uint64) {
	for i := 0; i < size; i++ {
		m[addr+uint64(i)] = byte(val >> (8 * i))
	}
}

func loadProgram(t *testing.T, insts []Inst) (*CPU, simpleMem) {
	t.Helper()
	m := simpleMem{}
	for i, in := range insts {
		w, err := Encode(in)
		if err != nil {
			t.Fatalf("encode %v: %v", in, err)
		}
		m.Store(uint64(i*4), 4, uint64(w))
	}
	return NewCPU(m, 0), m
}

func TestCPUArithmetic(t *testing.T) {
	c, _ := loadProgram(t, []Inst{
		{Op: ADDI, Rd: A0, Imm: 40},
		{Op: ADDI, Rd: A1, Imm: 2},
		{Op: ADD, Rd: A0, Rs1: A0, Rs2: A1},
		{Op: ECALL},
	})
	if _, err := c.Run(100); err != nil {
		t.Fatal(err)
	}
	if c.ExitCode != 42 {
		t.Fatalf("exit code = %d, want 42", c.ExitCode)
	}
}

func TestCPUBranchesAndLoop(t *testing.T) {
	// sum 1..10 with a countdown loop
	c, _ := loadProgram(t, []Inst{
		{Op: ADDI, Rd: T0, Imm: 10},          // 0: t0 = 10
		{Op: ADDI, Rd: A0, Imm: 0},           // 4: a0 = 0
		{Op: ADD, Rd: A0, Rs1: A0, Rs2: T0},  // 8: a0 += t0
		{Op: ADDI, Rd: T0, Rs1: T0, Imm: -1}, // 12: t0--
		{Op: BNE, Rs1: T0, Rs2: X0, Imm: -8}, // 16: loop
		{Op: ECALL},                          // 20
	})
	if _, err := c.Run(1000); err != nil {
		t.Fatal(err)
	}
	if c.ExitCode != 55 {
		t.Fatalf("sum = %d, want 55", c.ExitCode)
	}
}

func TestCPULoadStoreSignExtension(t *testing.T) {
	c, m := loadProgram(t, []Inst{
		{Op: LB, Rd: A0, Rs1: T0, Imm: 0x100},
		{Op: LBU, Rd: A1, Rs1: T0, Imm: 0x100},
		{Op: LH, Rd: A2, Rs1: T0, Imm: 0x100},
		{Op: LW, Rd: A3, Rs1: T0, Imm: 0x100},
		{Op: ECALL},
	})
	m.Store(0x100, 8, 0xFFFF_FFFF_FFFF_FFFF)
	if _, err := c.Run(100); err != nil {
		t.Fatal(err)
	}
	want := map[Reg]uint64{
		A0: ^uint64(0), A1: 0xFF, A2: ^uint64(0), A3: ^uint64(0),
	}
	for r, w := range want {
		if got := c.Reg(r); got != w {
			t.Errorf("%v = %#x, want %#x", r, got, w)
		}
	}
}

func TestCPUDivisionEdgeCases(t *testing.T) {
	cases := []struct {
		op   Op
		a, b uint64
		want uint64
	}{
		{DIV, 7, 0, ^uint64(0)},
		{DIVU, 7, 0, ^uint64(0)},
		{REM, 7, 0, 7},
		{REMU, 7, 0, 7},
		{DIV, 1 << 63, ^uint64(0), 1 << 63}, // overflow
		{REM, 1 << 63, ^uint64(0), 0},
		{DIV, ^uint64(0) - 6, 2, ^uint64(2)}, // -7/2 = -3 (trunc)
		{REM, ^uint64(0) - 6, 2, ^uint64(0)},
	}
	for _, tc := range cases {
		c, _ := loadProgram(t, []Inst{
			{Op: tc.op, Rd: A0, Rs1: T0, Rs2: T1},
			{Op: ECALL},
		})
		c.X[T0], c.X[T1] = tc.a, tc.b
		if _, err := c.Run(10); err != nil {
			t.Fatal(err)
		}
		if got := c.Reg(A0); got != tc.want {
			t.Errorf("%v(%#x,%#x) = %#x, want %#x", tc.op, tc.a, tc.b, got, tc.want)
		}
	}
}

func TestCPUMulHigh(t *testing.T) {
	cases := []struct {
		op   Op
		a, b uint64
		want uint64
	}{
		{MULHU, ^uint64(0), ^uint64(0), ^uint64(0) - 1},
		{MULH, ^uint64(0), ^uint64(0), 0},
		{MULH, 1 << 62, 4, 1},
		{MULHSU, ^uint64(0), ^uint64(0), ^uint64(0)},
	}
	for _, tc := range cases {
		c, _ := loadProgram(t, []Inst{
			{Op: tc.op, Rd: A0, Rs1: T0, Rs2: T1},
			{Op: ECALL},
		})
		c.X[T0], c.X[T1] = tc.a, tc.b
		if _, err := c.Run(10); err != nil {
			t.Fatal(err)
		}
		if got := c.Reg(A0); got != tc.want {
			t.Errorf("%v(%#x,%#x) = %#x, want %#x", tc.op, tc.a, tc.b, got, tc.want)
		}
	}
}

func TestCPUWordOps(t *testing.T) {
	c, _ := loadProgram(t, []Inst{
		{Op: ADDIW, Rd: A0, Rs1: T0, Imm: 1}, // 0x7fffffff+1 → sext(0x80000000)
		{Op: SRAIW, Rd: A1, Rs1: T1, Imm: 4},
		{Op: ECALL},
	})
	c.X[T0] = 0x7fffffff
	c.X[T1] = 0x80000000
	if _, err := c.Run(10); err != nil {
		t.Fatal(err)
	}
	if got := c.Reg(A0); got != 0xFFFF_FFFF_8000_0000 {
		t.Errorf("addiw = %#x", got)
	}
	if got := c.Reg(A1); got != 0xFFFF_FFFF_F800_0000 {
		t.Errorf("sraiw = %#x", got)
	}
}

func TestCPUJumpAndLink(t *testing.T) {
	c, _ := loadProgram(t, []Inst{
		{Op: JAL, Rd: RA, Imm: 8},           // 0: jump to 8
		{Op: ECALL},                         // 4: (return target)
		{Op: ADDI, Rd: A0, Imm: 99},         // 8
		{Op: JALR, Rd: X0, Rs1: RA, Imm: 0}, // 12: ret
	})
	if _, err := c.Run(10); err != nil {
		t.Fatal(err)
	}
	if c.ExitCode != 99 {
		t.Fatalf("exit = %d, want 99", c.ExitCode)
	}
	if c.InstRet != 4 {
		t.Fatalf("instret = %d, want 4", c.InstRet)
	}
}

func TestX0IsHardwiredZero(t *testing.T) {
	c, _ := loadProgram(t, []Inst{
		{Op: ADDI, Rd: X0, Imm: 123},
		{Op: ADD, Rd: A0, Rs1: X0, Rs2: X0},
		{Op: ECALL},
	})
	if _, err := c.Run(10); err != nil {
		t.Fatal(err)
	}
	if c.Reg(X0) != 0 || c.Reg(A0) != 0 {
		t.Fatalf("x0 = %d, a0 = %d; want 0, 0", c.Reg(X0), c.Reg(A0))
	}
}

func TestStepOnHaltedCPUFails(t *testing.T) {
	c, _ := loadProgram(t, []Inst{{Op: ECALL}})
	if _, err := c.Run(10); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Step(); err == nil {
		t.Fatal("Step on halted CPU succeeded")
	}
}

func TestRetiredRecords(t *testing.T) {
	c, _ := loadProgram(t, []Inst{
		{Op: ADDI, Rd: T0, Imm: 1},
		{Op: BEQ, Rs1: T0, Rs2: X0, Imm: 8}, // not taken
		{Op: SW, Rs1: X0, Rs2: T0, Imm: 0x80},
		{Op: ECALL},
	})
	r1, err := c.Step()
	if err != nil {
		t.Fatal(err)
	}
	if r1.PC != 0 || r1.NextPC != 4 || r1.Seq != 0 {
		t.Errorf("r1 = %+v", r1)
	}
	r2, _ := c.Step()
	if r2.Taken {
		t.Error("branch should not be taken")
	}
	if r2.NextPC != 8 {
		t.Errorf("not-taken branch NextPC = %d, want 8", r2.NextPC)
	}
	r3, _ := c.Step()
	if !r3.IsMem() || r3.MemAddr != 0x80 {
		t.Errorf("store record = %+v", r3)
	}
}

func TestOpClassification(t *testing.T) {
	if ClassALU != ADD.Class() || LW.Class() != ClassLoad || SD.Class() != ClassStore {
		t.Error("bad class mapping")
	}
	if !BEQ.IsControlFlow() || !JALR.IsControlFlow() || ADD.IsControlFlow() {
		t.Error("bad control-flow classification")
	}
	if BEQ.WritesRd() {
		t.Error("branches must not write rd")
	}
}

// TestOpTableMatchesSwitches pins the Op lookup table to the switches it
// is built from, over every Op value a byte can hold.
func TestOpTableMatchesSwitches(t *testing.T) {
	for i := 0; i < 256; i++ {
		op := Op(i)
		if got, want := op.Class(), classOf(op); got != want {
			t.Errorf("%v: Class() = %v, classOf = %v", op, got, want)
		}
		if got, want := op.WritesRd(), writesRd(op); got != want {
			t.Errorf("%v: WritesRd() = %v, writesRd = %v", op, got, want)
		}
		if got, want := op.ReadsRs1(), readsRs1(op); got != want {
			t.Errorf("%v: ReadsRs1() = %v, readsRs1 = %v", op, got, want)
		}
		if got, want := op.ReadsRs2(), readsRs2(op); got != want {
			t.Errorf("%v: ReadsRs2() = %v, readsRs2 = %v", op, got, want)
		}
	}
}

// mockCSR records CSR traffic for instruction-semantics tests.
type mockCSR struct {
	regs map[uint16]uint64
	log  []string
}

func (m *mockCSR) ReadCSR(addr uint16) uint64 { return m.regs[addr] }
func (m *mockCSR) WriteCSR(addr uint16, v uint64) {
	if m.regs == nil {
		m.regs = map[uint16]uint64{}
	}
	m.regs[addr] = v
	m.log = append(m.log, "w")
}

func TestCSRInstructionSemantics(t *testing.T) {
	const csr = 0x345
	cases := []struct {
		name    string
		in      Inst
		rs1     uint64
		initial uint64
		wantCSR uint64
		wantRd  uint64
		writes  int
	}{
		{"csrrw swaps", Inst{Op: CSRRW, Rd: A0, Rs1: T0, Imm: csr}, 7, 3, 7, 3, 1},
		{"csrrs sets bits", Inst{Op: CSRRS, Rd: A0, Rs1: T0, Imm: csr}, 0b100, 0b011, 0b111, 0b011, 1},
		{"csrrs rs1=x0 no write", Inst{Op: CSRRS, Rd: A0, Rs1: X0, Imm: csr}, 0, 5, 5, 5, 0},
		{"csrrc clears bits", Inst{Op: CSRRC, Rd: A0, Rs1: T0, Imm: csr}, 0b010, 0b111, 0b101, 0b111, 1},
		{"csrrwi immediate", Inst{Op: CSRRWI, Rd: A0, CSRImm: 13, Imm: csr}, 0, 2, 13, 2, 1},
		{"csrrsi zero imm no write", Inst{Op: CSRRSI, Rd: A0, CSRImm: 0, Imm: csr}, 0, 9, 9, 9, 0},
		{"csrrci clears imm", Inst{Op: CSRRCI, Rd: A0, CSRImm: 1, Imm: csr}, 0, 3, 2, 3, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, _ := loadProgram(t, []Inst{tc.in, {Op: ECALL}})
			csrf := &mockCSR{regs: map[uint16]uint64{csr: tc.initial}}
			c.CSR = csrf
			c.X[T0] = tc.rs1
			if _, err := c.Run(10); err != nil {
				t.Fatal(err)
			}
			if got := csrf.regs[csr]; got != tc.wantCSR {
				t.Errorf("csr = %d, want %d", got, tc.wantCSR)
			}
			if got := c.Reg(A0); got != tc.wantRd {
				t.Errorf("rd = %d, want %d", got, tc.wantRd)
			}
			if got := len(csrf.log); got != tc.writes {
				t.Errorf("%d writes, want %d", got, tc.writes)
			}
		})
	}
}

func TestCSRWithNilFileReadsZero(t *testing.T) {
	c, _ := loadProgram(t, []Inst{
		{Op: CSRRS, Rd: A0, Rs1: X0, Imm: 0xC00},
		{Op: ECALL},
	})
	c.X[A0] = 99
	if _, err := c.Run(10); err != nil {
		t.Fatal(err)
	}
	if c.Reg(A0) != 0 {
		t.Fatalf("csr read with nil file = %d, want 0", c.Reg(A0))
	}
}

func TestEcallHandlerHook(t *testing.T) {
	// A non-halting ecall handler lets workloads make "syscalls".
	c, _ := loadProgram(t, []Inst{
		{Op: ECALL}, // intercepted, continues
		{Op: ADDI, Rd: A0, Imm: 55},
		{Op: ECALL}, // halts (a7 set below)
	})
	calls := 0
	c.Ecall = func(cpu *CPU) bool {
		calls++
		return calls > 1
	}
	if _, err := c.Run(10); err != nil {
		t.Fatal(err)
	}
	if calls != 2 || c.ExitCode != 55 {
		t.Fatalf("calls=%d exit=%d", calls, c.ExitCode)
	}
}

// TestFlushDecodeRedecodes pins the decode cache's generation flush: code
// rewritten behind the CPU's back (bypassing storeMem's per-word
// invalidation) keeps executing from the cache until FlushDecode, after
// which the next Step at the same PC decodes the new word. Repeated
// flushes must not revive an entry filled in an older generation.
func TestFlushDecodeRedecodes(t *testing.T) {
	c, m := loadProgram(t, []Inst{
		{Op: ADDI, Rd: A0, Rs1: A0, Imm: 1}, // 0
		{Op: JAL, Rd: X0, Imm: -4},          // 4
	})
	c.SetSuperblocks(false)
	step := func() Retired {
		t.Helper()
		r, err := c.Step()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	step()
	step() // back at pc 0 with its decode cached
	w, err := Encode(Inst{Op: ADDI, Rd: A0, Rs1: A0, Imm: 2})
	if err != nil {
		t.Fatal(err)
	}
	m.Store(0, 4, uint64(w))
	if r := step(); r.Inst.Imm != 1 {
		t.Fatalf("unflushed step decoded imm %d, want the cached 1", r.Inst.Imm)
	}
	step()
	c.FlushDecode()
	if r := step(); r.PC != 0 || r.Inst.Imm != 2 {
		t.Fatalf("step after FlushDecode at pc %#x decoded imm %d, want pc 0 imm 2", r.PC, r.Inst.Imm)
	}
	if got := c.Reg(A0); got != 4 {
		t.Fatalf("a0 = %d, want 4", got)
	}
	// Restore the original word and flush twice: the next step must
	// decode it afresh, not hit the imm-2 entry from an older generation.
	w1, _ := Encode(Inst{Op: ADDI, Rd: A0, Rs1: A0, Imm: 1})
	m.Store(0, 4, uint64(w1))
	step()
	c.FlushDecode()
	c.FlushDecode()
	if r := step(); r.Inst.Imm != 1 {
		t.Fatalf("step after double flush decoded imm %d, want 1", r.Inst.Imm)
	}
}
