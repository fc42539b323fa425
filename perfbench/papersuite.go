package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"strconv"
	"time"

	"icicle/internal/experiments"
	"icicle/internal/kernel"
	"icicle/internal/obs"
	"icicle/internal/sim"
)

// paperArtifact is one icicle-bench artifact, rendered as icicle-bench
// renders it.
type paperArtifact struct {
	name string
	run  func(w io.Writer) error
}

type printer interface{ Fprint(io.Writer) }

func printed[T printer](f func() (T, error)) func(io.Writer) error {
	return func(w io.Writer) error {
		v, err := f()
		if err != nil {
			return err
		}
		v.Fprint(w)
		return nil
	}
}

func grid(f func() (experiments.TMAGrid, error)) func(io.Writer) error {
	return func(w io.Writer) error {
		g, err := f()
		if err != nil {
			return err
		}
		g.Fprint(w)
		g.FprintBackend(w)
		return nil
	}
}

// paperArtifacts is every icicle-bench artifact except sampled and
// sampledpar, in icicle-bench's order. Those two run the serial
// sample.Run path, and sampledpar prints host timings.
var paperArtifacts = []paperArtifact{
	{"fig3", printed(experiments.Fig3FrontendTrace)},
	{"fig7a", grid(experiments.Fig7aRocketMicro)},
	{"fig7c", printed(experiments.Fig7cCacheStudy)},
	{"fig7d", printed(experiments.Fig7dBranchInversion)},
	{"fig7ef", func(w io.Writer) error {
		cs, err := experiments.Fig7efCoreMarkSched()
		if err != nil {
			return err
		}
		cs.Fprint(w)
		fmt.Fprintln(w, cs.Base.B.BackendRow(cs.BaseName))
		fmt.Fprintln(w, cs.Variant.B.BackendRow(cs.VarName))
		return nil
	}},
	{"fig7g", grid(experiments.Fig7gBoomSPEC)},
	{"fig7k", grid(experiments.Fig7kBoomMicro)},
	{"fig7m", printed(experiments.Fig7mBoomCoreMarkSched)},
	{"fig7n", printed(experiments.Fig7nBoomBranchInversion)},
	{"table5", printed(experiments.Table5PerLane)},
	{"table6", printed(func() (experiments.Table6Result, error) { return experiments.Table6Overlap(50) })},
	{"fig8", printed(experiments.Fig8RecoveryCDF)},
	{"fig9", printed(func() (experiments.Fig9Result, error) { return experiments.Fig9Physical(true) })},
	{"undercount", printed(func() (experiments.UndercountResult, error) { return experiments.UndercountBound("rsort") })},
	{"archcmp", printed(func() (experiments.ArchComparison, error) {
		return experiments.CounterArchComparison("coremark", "uops-issued")
	})},
	{"widthsweep", printed(func() (experiments.WidthSweepResult, error) {
		return experiments.WidthSweep("coremark", "uops-issued")
	})},
	{"ras", printed(func() (experiments.RASResult, error) { return experiments.RASAblation("towers") })},
}

// paperSuiteRep runs every paper artifact once through a fresh default
// runner and checks each job result and each rendered artifact against
// the golden data.
func paperSuiteRep(c *repCtx) error {
	t0 := time.Now()
	sim.ConfigureDefault(c.runnerOpts()...)
	for _, k := range kernel.All() {
		if _, err := k.Program(); err != nil {
			return err
		}
	}
	c.res.SetupSec = []float64{time.Since(t0).Seconds()}

	reg := obs.Default()
	ph, err := c.startPhase(sim.Default(), func() (*obs.Scraped, error) { return obs.ScrapeRegistry(reg) })
	if err != nil {
		return err
	}
	out := map[string][]byte{}
	for _, a := range paperArtifacts {
		var buf bytes.Buffer
		end := c.span("artifact " + a.name)
		err := a.run(&buf)
		end()
		c.res.Attempted++
		if err != nil {
			c.fail("%s: %v", a.name, err)
			continue
		}
		out[a.name] = buf.Bytes()
	}
	wall, err := ph.stop()
	if err != nil {
		return err
	}

	for _, a := range paperArtifacts {
		if b, ok := out[a.name]; ok {
			c.expect("artifacts", a.name, fmt.Sprintf("%x", sha256.Sum256(b))[:16], "artifact "+a.name)
		}
	}
	var insts float64
	jobs := c.obs.measured()
	for _, j := range jobs {
		r := j.res
		c.res.Attempted++
		c.res.JobMS = append(c.res.JobMS, float64(j.wall)/1e6)
		if r.Err != nil {
			c.fail("%s on %s: %v", r.Job.Kernel.Name, r.Job.CoreName(), r.Err)
			continue
		}
		if k := r.Job.Kernel; k.Expected != 0 && r.Exit() != k.Expected {
			c.fail("%s on %s: exit %#x, want %#x", k.Name, r.Job.CoreName(), r.Exit(), k.Expected)
		}
		insts += float64(r.Insts())
		c.expect("jobs", hk(r.Job.Key()), resultDigest(r), r.Job.CoreName()+"|"+r.Job.Kernel.Name)
	}
	// Cold state: the repetition must hit the memo exactly where the
	// artifacts overlap, never more.
	st := c.obs.stats
	c.expect("plan", "jobs", strconv.FormatUint(st.Jobs, 10), "runner jobs")
	c.expect("plan", "memo_hits", strconv.FormatUint(st.Hits, 10), "runner memo hits")
	c.res.Metrics["minst_per_s"] = insts / wall.Seconds() / 1e6
	return nil
}

func paperSuiteGolden() (golden, error) {
	c := newRepCtx(options{workload: "paper-suite"}, nil)
	c.rec = golden{}
	if err := paperSuiteRep(c); err != nil {
		return nil, err
	}
	if len(c.res.Problems) > 0 {
		return nil, fmt.Errorf("%v", c.res.Problems)
	}
	return c.rec, nil
}
