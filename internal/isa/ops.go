// Package isa implements the RV64IM subset of the RISC-V instruction set
// used by the Icicle workloads and core timing models: instruction
// definitions, a binary encoder/decoder, and functional execution semantics.
//
// The package is deliberately self-contained (no dependency on the memory
// hierarchy or the cores); memory and CSR accesses go through small
// interfaces so the same functional model backs both the Rocket and BOOM
// timing simulators.
package isa

import "fmt"

// Op identifies one RV64IM instruction.
type Op uint8

// All supported operations. The ordering groups instructions by format so
// that encode/decode can switch on contiguous ranges.
const (
	ILLEGAL Op = iota

	// U-type.
	LUI
	AUIPC

	// J-type.
	JAL

	// I-type jump.
	JALR

	// B-type branches.
	BEQ
	BNE
	BLT
	BGE
	BLTU
	BGEU

	// I-type loads.
	LB
	LH
	LW
	LD
	LBU
	LHU
	LWU

	// S-type stores.
	SB
	SH
	SW
	SD

	// I-type ALU.
	ADDI
	SLTI
	SLTIU
	XORI
	ORI
	ANDI
	SLLI
	SRLI
	SRAI
	ADDIW
	SLLIW
	SRLIW
	SRAIW

	// R-type ALU.
	ADD
	SUB
	SLL
	SLT
	SLTU
	XOR
	SRL
	SRA
	OR
	AND
	ADDW
	SUBW
	SLLW
	SRLW
	SRAW

	// M extension.
	MUL
	MULH
	MULHSU
	MULHU
	DIV
	DIVU
	REM
	REMU
	MULW
	DIVW
	DIVUW
	REMW
	REMUW

	// A extension (subset: load-reserved/store-conditional and the common
	// fetch-and-op atomics, word and dword).
	LRW
	LRD
	SCW
	SCD
	AMOSWAPW
	AMOSWAPD
	AMOADDW
	AMOADDD
	AMOXORW
	AMOXORD
	AMOANDW
	AMOANDD
	AMOORW
	AMOORD

	// System.
	FENCE
	FENCEI
	ECALL
	EBREAK
	CSRRW
	CSRRS
	CSRRC
	CSRRWI
	CSRRSI
	CSRRCI

	numOps
)

var opNames = [...]string{
	ILLEGAL: "illegal",
	LUI:     "lui", AUIPC: "auipc", JAL: "jal", JALR: "jalr",
	BEQ: "beq", BNE: "bne", BLT: "blt", BGE: "bge", BLTU: "bltu", BGEU: "bgeu",
	LB: "lb", LH: "lh", LW: "lw", LD: "ld", LBU: "lbu", LHU: "lhu", LWU: "lwu",
	SB: "sb", SH: "sh", SW: "sw", SD: "sd",
	ADDI: "addi", SLTI: "slti", SLTIU: "sltiu", XORI: "xori", ORI: "ori", ANDI: "andi",
	SLLI: "slli", SRLI: "srli", SRAI: "srai",
	ADDIW: "addiw", SLLIW: "slliw", SRLIW: "srliw", SRAIW: "sraiw",
	ADD: "add", SUB: "sub", SLL: "sll", SLT: "slt", SLTU: "sltu", XOR: "xor",
	SRL: "srl", SRA: "sra", OR: "or", AND: "and",
	ADDW: "addw", SUBW: "subw", SLLW: "sllw", SRLW: "srlw", SRAW: "sraw",
	MUL: "mul", MULH: "mulh", MULHSU: "mulhsu", MULHU: "mulhu",
	DIV: "div", DIVU: "divu", REM: "rem", REMU: "remu",
	MULW: "mulw", DIVW: "divw", DIVUW: "divuw", REMW: "remw", REMUW: "remuw",
	LRW: "lr.w", LRD: "lr.d", SCW: "sc.w", SCD: "sc.d",
	AMOSWAPW: "amoswap.w", AMOSWAPD: "amoswap.d",
	AMOADDW: "amoadd.w", AMOADDD: "amoadd.d",
	AMOXORW: "amoxor.w", AMOXORD: "amoxor.d",
	AMOANDW: "amoand.w", AMOANDD: "amoand.d",
	AMOORW: "amoor.w", AMOORD: "amoor.d",
	FENCE: "fence", FENCEI: "fence.i", ECALL: "ecall", EBREAK: "ebreak",
	CSRRW: "csrrw", CSRRS: "csrrs", CSRRC: "csrrc",
	CSRRWI: "csrrwi", CSRRSI: "csrrsi", CSRRCI: "csrrci",
}

func (op Op) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// Class buckets instructions by the pipeline resources they use. Timing
// models key functional-unit selection and hazard logic off the class.
type Class uint8

const (
	ClassALU Class = iota
	ClassBranch
	ClassJump // jal, jalr
	ClassLoad
	ClassStore
	ClassAtomic // A-extension read-modify-write
	ClassMul
	ClassDiv
	ClassFence
	ClassCSR
	ClassSystem // ecall, ebreak
	numClasses
)

var classNames = [...]string{
	ClassALU: "alu", ClassBranch: "branch", ClassJump: "jump",
	ClassLoad: "load", ClassStore: "store", ClassAtomic: "atomic",
	ClassMul: "mul", ClassDiv: "div",
	ClassFence: "fence", ClassCSR: "csr", ClassSystem: "system",
}

func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// opInfo is what the timing models ask of an operation several times per
// instruction per cycle. opTable holds it for every Op value, undefined
// ones included, built from the switches that define each property
// (classOf, writesRd, readsRs1, readsRs2), so a query is one indexed load
// the compiler inlines.
type opInfo struct {
	class                        Class
	writesRd, readsRs1, readsRs2 bool
}

var opTable = func() (t [256]opInfo) {
	for i := range t {
		op := Op(i)
		t[i] = opInfo{classOf(op), writesRd(op), readsRs1(op), readsRs2(op)}
	}
	return t
}()

// Class reports the pipeline class of the operation.
func (op Op) Class() Class { return opTable[op].class }

// WritesRd reports whether the op architecturally writes rd.
func (op Op) WritesRd() bool { return opTable[op].writesRd }

// ReadsRs1 reports whether rs1 is a live source register.
func (op Op) ReadsRs1() bool { return opTable[op].readsRs1 }

// ReadsRs2 reports whether rs2 is a live source register.
func (op Op) ReadsRs2() bool { return opTable[op].readsRs2 }

// classOf defines each operation's pipeline class.
func classOf(op Op) Class {
	switch op {
	case BEQ, BNE, BLT, BGE, BLTU, BGEU:
		return ClassBranch
	case JAL, JALR:
		return ClassJump
	case LB, LH, LW, LD, LBU, LHU, LWU:
		return ClassLoad
	case SB, SH, SW, SD:
		return ClassStore
	case LRW, LRD, SCW, SCD, AMOSWAPW, AMOSWAPD, AMOADDW, AMOADDD,
		AMOXORW, AMOXORD, AMOANDW, AMOANDD, AMOORW, AMOORD:
		return ClassAtomic
	case MUL, MULH, MULHSU, MULHU, MULW:
		return ClassMul
	case DIV, DIVU, REM, REMU, DIVW, DIVUW, REMW, REMUW:
		return ClassDiv
	case FENCE, FENCEI:
		return ClassFence
	case CSRRW, CSRRS, CSRRC, CSRRWI, CSRRSI, CSRRCI:
		return ClassCSR
	case ECALL, EBREAK:
		return ClassSystem
	default:
		return ClassALU
	}
}

// MemSize returns the access width in bytes for loads, stores, and
// atomics, and 0 for everything else.
func (op Op) MemSize() int {
	switch op {
	case LB, LBU, SB:
		return 1
	case LH, LHU, SH:
		return 2
	case LW, LWU, SW, LRW, SCW, AMOSWAPW, AMOADDW, AMOXORW, AMOANDW, AMOORW:
		return 4
	case LD, SD, LRD, SCD, AMOSWAPD, AMOADDD, AMOXORD, AMOANDD, AMOORD:
		return 8
	}
	return 0
}

// IsBranch reports whether the op is a conditional branch.
func (op Op) IsBranch() bool { return op.Class() == ClassBranch }

// IsControlFlow reports whether the op may redirect the PC.
func (op Op) IsControlFlow() bool {
	c := op.Class()
	return c == ClassBranch || c == ClassJump
}

// writesRd defines whether the op architecturally writes rd. Atomics
// write rd (the old memory value; sc writes the success flag).
func writesRd(op Op) bool {
	switch classOf(op) {
	case ClassBranch, ClassStore, ClassFence, ClassSystem:
		return false
	}
	return true
}

// readsRs1 defines whether rs1 is a live source register.
func readsRs1(op Op) bool {
	switch op {
	case LUI, AUIPC, JAL, FENCE, FENCEI, ECALL, EBREAK, CSRRWI, CSRRSI, CSRRCI:
		return false
	}
	return true
}

// readsRs2 defines whether rs2 is a live source register.
func readsRs2(op Op) bool {
	switch classOf(op) {
	case ClassBranch, ClassStore:
		return true
	}
	switch op {
	case SCW, SCD, AMOSWAPW, AMOSWAPD, AMOADDW, AMOADDD,
		AMOXORW, AMOXORD, AMOANDW, AMOANDD, AMOORW, AMOORD:
		return true
	}
	switch op {
	case ADD, SUB, SLL, SLT, SLTU, XOR, SRL, SRA, OR, AND,
		ADDW, SUBW, SLLW, SRLW, SRAW,
		MUL, MULH, MULHSU, MULHU, DIV, DIVU, REM, REMU,
		MULW, DIVW, DIVUW, REMW, REMUW:
		return true
	}
	return false
}

// NumOps is the count of defined operations (useful for table sizing and
// property tests).
const NumOps = int(numOps)
