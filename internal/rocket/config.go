package rocket

import (
	"icicle/internal/mem"
	"icicle/internal/pmu"
)

// Config parameterizes the Rocket timing model. DefaultConfig matches
// Table IV's Rocket row (2-wide fetch, 1-wide decode/issue, 512-entry BHT,
// 28-entry BTB) over the paper's common memory hierarchy.
type Config struct {
	FetchWidth  int // instructions fetched per cycle
	IBufEntries int // instruction buffer capacity

	BrMispredictPenalty int // frontend recovery cycles after a mispredict
	TakenBubble         int // dead fetch cycles after any taken-CF redirect
	BTBMissPenalty      int // fetch redirect bubble for taken CF without BTB hit
	JALRPenalty         int // redirect cost when a jalr target misses in the BTB
	LoadUseDelay        int // extra cycles before a load's value is usable
	MulLatency          int // pipelined multiply latency
	DivLatency          int // blocking divide latency
	CSRLatency          int // csr access serialization cost
	FencePenalty        int // pipeline flush cost for fence
	FenceIPenalty       int // fence.i: flush pipeline and I$

	Hierarchy mem.HierarchyConfig
	PMUArch   pmu.Architecture

	MaxCycles uint64 // simulation guard (0 = default)
	MaxInsts  uint64 // instruction budget (0 = default)
}

// DefaultConfig returns the paper's Rocket configuration.
func DefaultConfig() Config {
	return Config{
		FetchWidth:          2,
		IBufEntries:         3,
		BrMispredictPenalty: 3,
		TakenBubble:         1,
		BTBMissPenalty:      2,
		JALRPenalty:         3,
		LoadUseDelay:        1,
		MulLatency:          4,
		DivLatency:          16,
		CSRLatency:          2,
		FencePenalty:        4,
		FenceIPenalty:       8,
		Hierarchy:           mem.DefaultHierarchyConfig(2),
		PMUArch:             pmu.AddWires,
		MaxCycles:           2_000_000_000,
		MaxInsts:            500_000_000,
	}
}

// CommitWidth returns Rocket's commit width (always 1: single issue).
func (Config) CommitWidth() int { return 1 }

// IssueWidth returns Rocket's issue width (always 1).
func (Config) IssueWidth() int { return 1 }

// Shape returns cfg with every pure timing field zeroed: the penalties,
// latencies and run budgets, plus the hierarchy's (mem.HierarchyConfig.Shape).
// The cycle loop reads these from Cfg as it goes and nothing is sized by
// them, so cores built from configs of equal shape differ only in timing
// and one can be Retimed to the other. Every field not listed here stays
// in the shape: a forgotten timing field costs pool reuse, never
// correctness.
func (cfg Config) Shape() Config {
	cfg.BrMispredictPenalty = 0
	cfg.TakenBubble = 0
	cfg.BTBMissPenalty = 0
	cfg.JALRPenalty = 0
	cfg.LoadUseDelay = 0
	cfg.MulLatency = 0
	cfg.DivLatency = 0
	cfg.CSRLatency = 0
	cfg.FencePenalty = 0
	cfg.FenceIPenalty = 0
	cfg.MaxCycles = 0
	cfg.MaxInsts = 0
	cfg.Hierarchy = cfg.Hierarchy.Shape()
	return cfg
}
