package perf

import (
	"strings"
	"testing"

	"icicle/internal/asm"
	"icicle/internal/boom"
	"icicle/internal/isa"
	"icicle/internal/kernel"
	"icicle/internal/mem"
	"icicle/internal/pmu"
	"icicle/internal/rocket"
)

func TestPlanValidation(t *testing.T) {
	space := boom.NewSpace(3, 5)
	good := Plan{Groups: []Group{{boom.EvUopsIssued, boom.EvFetchBubbles}}}
	if err := good.Validate(space); err != nil {
		t.Fatal(err)
	}
	crossSet := Plan{Groups: []Group{{boom.EvUopsIssued, boom.EvCycles}}}
	if err := crossSet.Validate(space); err == nil {
		t.Fatal("cross-set group validated")
	}
	unknown := Plan{Groups: []Group{{"bogus"}}}
	if err := unknown.Validate(space); err == nil {
		t.Fatal("unknown event validated")
	}
	tooMany := Plan{Groups: make([]Group, pmu.NumHPMCounters+1)}
	if err := tooMany.Validate(space); err == nil {
		t.Fatal("oversized plan validated")
	}
}

func TestSelectorsEncodeGroups(t *testing.T) {
	space := boom.NewSpace(3, 5)
	plan := Plan{Groups: []Group{{boom.EvUopsIssued, boom.EvFetchBubbles}, {boom.EvICacheMiss}}}
	sels, err := plan.Selectors(space)
	if err != nil {
		t.Fatal(err)
	}
	if len(sels) != 2 {
		t.Fatalf("%d selectors", len(sels))
	}
	if sels[0].Set != boom.SetTMA || sels[0].Mask != 0b11 {
		t.Fatalf("selector 0 = %+v", sels[0])
	}
	if sels[1].Set != boom.SetMemory || sels[1].Mask != 1 {
		t.Fatalf("selector 1 = %+v", sels[1])
	}
}

func TestBootShimAssemblesAndPrograms(t *testing.T) {
	// The generated shim, run in front of a workload, must program the
	// PMU identically to Plan.Apply — the full in-band path of §IV-D.
	space := rocket.Events
	plan := TMAPlan(rocket.EvInstIssued, rocket.EvFetchBubbles)
	shim, err := plan.BootShim(space)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := asm.Assemble(shim + "\n\tecall\n")
	if err != nil {
		t.Fatalf("shim does not assemble: %v\n%s", err, shim)
	}
	m := mem.NewSparse()
	prog.LoadInto(m)
	dev := pmu.New(space, pmu.AddWires)
	cpu := isa.NewCPU(m, prog.Entry)
	cpu.CSR = dev
	if _, err := cpu.Run(1000); err != nil {
		t.Fatal(err)
	}
	want, err := plan.Selectors(space)
	if err != nil {
		t.Fatal(err)
	}
	got := dev.Selectors()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("counter %d: shim programmed %+v, want %+v", i, got[i], want[i])
		}
	}
	if dev.ReadCSR(pmu.CSRMCountInhibit) != 0 {
		t.Fatal("shim did not clear mcountinhibit")
	}
}

func TestReadoutShim(t *testing.T) {
	// Wrap a kernel with the boot and readout shims; the counter values
	// the workload itself dumps to memory must match the PMU.
	const dumpBase = 0x700000
	space := rocket.Events
	plan := TMAPlan(rocket.EvInstIssued, rocket.EvFetchBubbles, rocket.EvRecovering)
	shim, err := plan.BootShim(space)
	if err != nil {
		t.Fatal(err)
	}
	body := `
	li   t2, 1000
loopx:
	addi t3, t3, 1
	addi t2, t2, -1
	bnez t2, loopx
`
	prog, err := asm.Assemble(shim + body + plan.ReadoutShim(dumpBase) + "\tecall\n")
	if err != nil {
		t.Fatal(err)
	}
	cfg := rocket.DefaultConfig()
	c := rocket.New(cfg, prog)
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	memv := c.CPU.Mem
	for i := range plan.Groups {
		dumped := memv.Load(dumpBase+uint64(8*i), 8)
		// The PMU keeps counting during the readout itself, so allow the
		// dumped value to trail the final value slightly.
		final := c.PMU.Read(i)
		if dumped > final || final-dumped > 64 {
			t.Errorf("counter %d: dumped %d, final %d", i, dumped, final)
		}
	}
	cycles := memv.Load(dumpBase+uint64(8*len(plan.Groups)), 8)
	if cycles == 0 || cycles > c.PMU.Cycles() {
		t.Errorf("dumped cycle count %d implausible (final %d)", cycles, c.PMU.Cycles())
	}
}

func TestPlanRead(t *testing.T) {
	space := rocket.Events
	dev := pmu.New(space, pmu.AddWires)
	plan := TMAPlan(rocket.EvInstIssued)
	if err := plan.Apply(dev); err != nil {
		t.Fatal(err)
	}
	sample := space.NewSample()
	sample.Assert(space.MustIndex(rocket.EvInstIssued), 0)
	dev.Tick(sample, 1)
	vals := plan.Read(dev)
	if vals[rocket.EvInstIssued] != 1 || vals["cycles"] != 1 || vals["instret"] != 1 {
		t.Fatalf("read = %v", vals)
	}
}

func TestCountsFromPMU(t *testing.T) {
	space := boom.NewSpace(3, 5)
	dev := pmu.New(space, pmu.AddWires)
	names := []string{"uops-issued", "uops-retired", "fetch-bubbles",
		"recovering", "fence-retired", "icache-blocked", "dcache-blocked"}
	plan := TMAPlan(names...)
	if err := plan.Apply(dev); err != nil {
		t.Fatal(err)
	}
	sample := space.NewSample()
	sample.AssertN(space.MustIndex(boom.EvUopsIssued), 4)
	sample.AssertN(space.MustIndex(boom.EvUopsRetired), 3)
	dev.Tick(sample, 3)
	c, err := CountsFromPMU(dev, names)
	if err != nil {
		t.Fatal(err)
	}
	if c.UopsIssued != 4 || c.UopsRetired != 3 || c.Cycles != 1 || c.InstRet != 3 {
		t.Fatalf("counts = %+v", c)
	}
	if _, err := CountsFromPMU(dev, names[:2]); err == nil {
		t.Fatal("missing events not reported")
	}
}

func TestRunnersProduceConsistentBreakdowns(t *testing.T) {
	k, _ := kernel.ByName("dhrystone")
	_, rb, err := Run(rocket.New(rocket.DefaultConfig(), k.MustProgram()), k)
	if err != nil {
		t.Fatal(err)
	}
	_, bb, err := Run(boom.MustNew(boom.NewConfig(boom.Small), k.MustProgram()), k)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []float64{rb.TopLevelSum(), bb.TopLevelSum()} {
		if b < 0.999 || b > 1.001 {
			t.Fatalf("top level sum %f", b)
		}
	}
	// Dhrystone is the predictable high-IPC benchmark on both cores.
	if rb.Retiring < 0.7 {
		t.Fatalf("rocket dhrystone retiring = %.2f", rb.Retiring)
	}
}

func TestBootShimMentionsEveryCounter(t *testing.T) {
	plan := TMAPlan(rocket.EvInstIssued, rocket.EvFetchBubbles)
	shim, err := plan.BootShim(rocket.Events)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"mhpmevent3", "mhpmevent4", "mcountinhibit"} {
		if !strings.Contains(shim, want) {
			t.Errorf("shim missing %s:\n%s", want, shim)
		}
	}
}
