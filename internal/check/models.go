package check

import (
	"bytes"
	"fmt"

	"icicle/internal/asm"
	"icicle/internal/boom"
	"icicle/internal/core"
	"icicle/internal/isa"
	"icicle/internal/perf"
	"icicle/internal/pmu"
	"icicle/internal/rocket"
	"icicle/internal/trace"
)

// RunOptions parameterizes one model execution.
type RunOptions struct {
	// MaxCycles is the timing-model cycle budget for this program
	// (derived from the functional reference's instruction count).
	MaxCycles uint64
	// Determinism also runs the program a second time on the same core
	// after Reset and records the outcome in Outcome.Replay.
	Determinism bool
	// Trace attaches the trace bridge and a CSR-programmed PMU plan, and
	// records their independent event totals for the consistency
	// invariant.
	Trace bool
	// SkipDifferential re-runs the program on the same core after Reset
	// with the event-driven stall skip toggled to the opposite of what the
	// first run effectively used, and records the outcome in
	// Outcome.SkipDiff. A traced first run carries a cycle hook, which
	// forces per-cycle stepping, so its differential replay skips; an
	// untraced first run skips (the default), so its replay steps. Either
	// way the pair pins skip-vs-step bit identity.
	SkipDifferential bool
}

// Outcome is one model execution's observable result.
type Outcome struct {
	Cycles uint64
	Insts  uint64
	Exit   uint64
	Regs   [32]uint64
	// Tally holds the model's dense (source-assertion) event totals.
	Tally map[string]uint64
	// Breakdown is the TMA evaluation of the run's counts.
	Breakdown    core.Breakdown
	HasBreakdown bool

	// Replay is the Reset-reuse re-run (nil unless RunOptions.Determinism).
	Replay *Outcome

	// SkipDiff is the stall-skip-toggled re-run (nil unless
	// RunOptions.SkipDifferential).
	SkipDiff *Outcome

	// TracedEvents names the events cross-checked below (nil unless
	// RunOptions.Trace).
	TracedEvents []string
	// TraceTotals are lane-summed totals decoded from the trace stream.
	TraceTotals map[string]uint64
	// PMUReads are the CSR-visible counter values, one per traced event.
	PMUReads map[string]uint64
}

// Model is one execution backend under differential test. DefaultModels
// returns the production set; tests inject faulty models through
// WithModels to prove the oracle catches planted bugs.
type Model struct {
	Name string
	Run  func(prog *asm.Program, opt RunOptions) (Outcome, error)
}

// DefaultModels returns the full oracle set: Rocket plus all five Table IV
// BOOM sizes.
func DefaultModels() []Model {
	models := []Model{RocketModel()}
	for _, s := range boom.Sizes {
		models = append(models, BoomModel(s))
	}
	return models
}

// RocketModel returns the Rocket timing model at the paper configuration.
func RocketModel() Model {
	return coreModel("rocket", func(prog *asm.Program, maxCycles uint64) (perf.Core[rocket.Result], error) {
		cfg := rocket.DefaultConfig()
		cfg.MaxCycles = maxCycles
		return rocket.New(cfg, prog), nil
	})
}

// BoomModel returns the BOOM timing model at one of the Table IV sizes.
func BoomModel(size boom.Size) Model {
	return coreModel(size.String(), func(prog *asm.Program, maxCycles uint64) (perf.Core[boom.Result], error) {
		cfg := boom.NewConfig(size)
		cfg.MaxCycles = maxCycles
		return boom.New(cfg, prog)
	})
}

// coreModel is the one timing-model backend over the detailed-core
// contract: build returns a core for the program (a zero cycle budget
// keeps the config's default guard), and the run, its Reset-reuse
// replay, and its stall-skip differential are the same for every core.
func coreModel[R any](name string, build func(prog *asm.Program, maxCycles uint64) (perf.Core[R], error)) Model {
	return Model{
		Name: name,
		Run: func(prog *asm.Program, opt RunOptions) (Outcome, error) {
			c, err := build(prog, opt.MaxCycles)
			if err != nil {
				return Outcome{}, err
			}
			out, err := runOnce(c, opt)
			if err != nil {
				return out, err
			}
			if opt.Determinism {
				c.Reset(prog)
				replay, err := runOnce(c, opt)
				if err != nil {
					return out, fmt.Errorf("replay: %w", err)
				}
				out.Replay = &replay
			}
			if opt.SkipDifferential {
				c.Reset(prog)
				c.SetStallSkip(opt.Trace)
				sd, err := runOnce(c, RunOptions{MaxCycles: opt.MaxCycles})
				if err != nil {
					return out, fmt.Errorf("skip differential: %w", err)
				}
				out.SkipDiff = &sd
			}
			return out, nil
		},
	}
}

// runOnce runs the (Reset or fresh) core to completion and records its
// outcome. A traced run cross-checks every event of the core's space.
func runOnce[R any](c perf.Core[R], opt RunOptions) (Outcome, error) {
	space, cpu := c.EventSpace(), c.Target().CPU
	var tc *traceCapture
	if opt.Trace {
		var err error
		if tc, err = attachTrace(space, cpu.CSR, c.SetCycleHook); err != nil {
			return Outcome{}, err
		}
	}
	if err := c.RunCycles(); err != nil {
		return Outcome{}, err
	}
	out := Outcome{
		Cycles: c.Cycles(),
		Insts:  c.Insts(),
		Exit:   cpu.ExitCode,
		Regs:   cpu.X,
		Tally:  make(map[string]uint64, len(space.Events)),
	}
	for i, total := range c.CopyTally(nil) {
		out.Tally[space.Events[i].Name] = total
	}
	if b, err := perf.Evaluate(c); err == nil {
		out.Breakdown, out.HasBreakdown = b, true
	}
	if tc != nil {
		if err := tc.finish(&out); err != nil {
			return out, err
		}
	}
	return out, nil
}

// traceCapture wires the §IV-B and §IV-C observation paths to one run:
// the PMU counter file programmed through its CSR interface (one counter
// per event, as perf.TMAPlan would), and the trace bridge streaming the
// same events per cycle into an in-memory buffer.
type traceCapture struct {
	events []string
	buf    bytes.Buffer
	w      *trace.Writer
	csr    isa.CSRFile // the core CPU's CSR port onto its PMU
}

func attachTrace(space *pmu.Space, csr isa.CSRFile, setHook func(pmu.CycleHook)) (*traceCapture, error) {
	events := space.Names()
	bundle, err := trace.NewBundle(space, events...)
	if err != nil {
		return nil, fmt.Errorf("check: trace bundle: %w", err)
	}
	tc := &traceCapture{events: events, csr: csr}
	tc.w, err = trace.NewWriter(&tc.buf, bundle)
	if err != nil {
		return nil, fmt.Errorf("check: trace writer: %w", err)
	}
	// Program the counter file through the same four-step CSR sequence
	// the hardware harness uses (§IV-D): selector writes via mhpmevent,
	// counter clears, then the inhibit-clear that starts counting.
	for i, ev := range events {
		idx, err := space.Index(ev)
		if err != nil {
			return nil, err
		}
		e := space.Events[idx]
		sel := pmu.Selector{Set: e.Set, Mask: 1 << uint(e.Bit)}
		csr.WriteCSR(pmu.CSRMHPMEvent3+uint16(i), sel.Encode())
		csr.WriteCSR(pmu.CSRMHPMCounter3+uint16(i), 0)
	}
	csr.WriteCSR(pmu.CSRMCountInhibit, 0)
	setHook(tc.w.WriteCycle)
	return tc, nil
}

// finish flushes and decodes the trace, reads back the counters, and
// records both in the outcome.
func (t *traceCapture) finish(out *Outcome) error {
	if err := t.w.Flush(); err != nil {
		return fmt.Errorf("check: trace flush: %w", err)
	}
	rd, err := trace.NewReader(&t.buf)
	if err != nil {
		return fmt.Errorf("check: trace reader: %w", err)
	}
	an, err := trace.NewAnalyzer(rd)
	if err != nil {
		return fmt.Errorf("check: trace analyzer: %w", err)
	}
	out.TracedEvents = t.events
	out.TraceTotals = an.Totals()
	out.PMUReads = make(map[string]uint64, len(t.events))
	for i, ev := range t.events {
		out.PMUReads[ev] = t.csr.ReadCSR(pmu.CSRMHPMCounter3 + uint16(i))
	}
	return nil
}
