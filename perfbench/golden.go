package main

import (
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"sort"

	"icicle/internal/serve"
	"icicle/internal/sim"
)

// Golden data: per workload, sections of id → value. Ids are hashed job
// keys (see hk) so the files stay small; values are result digests or
// reference numbers. `perfbench golden` regenerates every file from the
// current code, which must only be done when a change is meant to alter
// simulation results.
//
//go:embed golden/*.json
var goldenFS embed.FS

type golden map[string]map[string]string

func loadGolden(workload string) (golden, error) {
	b, err := goldenFS.ReadFile("golden/" + workload + ".json")
	if err != nil {
		return nil, err
	}
	var g golden
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("golden/%s.json: %w", workload, err)
	}
	return g, nil
}

func (g golden) set(section, id, value string) {
	if g[section] == nil {
		g[section] = map[string]string{}
	}
	g[section][id] = value
}

func (g golden) get(section, id string) (string, bool) {
	v, ok := g[section][id]
	return v, ok
}

func (g golden) write(workload string) error {
	b, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join("perfbench", "golden", workload+".json"), append(b, '\n'), 0o644)
}

// hk is the short id of a job key in the golden files.
func hk(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:8])
}

func short(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)[:8]) }

// resultDigest fingerprints everything a runner result reports: its key,
// the full core result (cycles, instructions, exit, every tally and cache
// counter), the TMA breakdown and the sampled report.
func resultDigest(r sim.Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|", r.Job.Key())
	if r.Job.Core == sim.Boom {
		fmt.Fprintf(h, "%v|", r.Boom)
	} else {
		fmt.Fprintf(h, "%v|", r.Rocket)
	}
	fmt.Fprintf(h, "%v|", r.Breakdown)
	if r.Sampled != nil {
		fmt.Fprintf(h, "%v", *r.Sampled)
	}
	return short(h)
}

// jobResultDigest fingerprints one job of an HTTP response: its key,
// cycles, instructions, exit, tally and top-level TMA split.
func jobResultDigest(r serve.JobResult) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|%d|%d|%s|", r.Key, r.Cycles, r.Insts, r.Exit)
	names := make([]string, 0, len(r.Tally))
	for k := range r.Tally {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(h, "%s=%d;", k, r.Tally[k])
	}
	if r.TMA != nil {
		fmt.Fprintf(h, "|%v", *r.TMA)
	}
	return short(h)
}

// goldenMain regenerates every golden file from the current code.
func goldenMain() error {
	for _, name := range []string{"paper-suite", "sampled-sweep", "serve-mix"} {
		fmt.Fprintf(os.Stderr, "perfbench golden: %s\n", name)
		g, err := workloads[name].golden()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if err := g.write(name); err != nil {
			return err
		}
	}
	return nil
}
