package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// A span read back from the Chrome trace a traced repetition writes.
// Times are trace microseconds.
type span struct {
	name, cat  string
	tid        int
	start, end float64
	parent     *span
	children   []*span
}

func (s *span) dur() float64 { return s.end - s.start }

// spanSet indexes the spans of one trace, restricted to the measured
// phase.
type spanSet struct {
	byTid   map[int][]*span // sorted by start, enclosing spans first
	byName  map[string][]*span
	asyncUS map[string][]float64 // async interval durations by category
	threads map[int]string       // thread_name metadata
}

func loadSpans(path string, lo, hi float64) (*spanSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var file struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Tid  int            `json:"tid"`
			ID   uint64         `json:"id"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &file); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	s := &spanSet{
		byTid:   map[int][]*span{},
		byName:  map[string][]*span{},
		asyncUS: map[string][]float64{},
		threads: map[int]string{},
	}
	type asyncKey struct {
		cat string
		id  uint64
	}
	begins := map[asyncKey]float64{}
	for _, e := range file.TraceEvents {
		switch e.Ph {
		case "X":
			if e.Ts < lo || e.Ts > hi {
				continue
			}
			sp := &span{name: e.Name, cat: e.Cat, tid: e.Tid, start: e.Ts, end: e.Ts + e.Dur}
			s.byTid[e.Tid] = append(s.byTid[e.Tid], sp)
			s.byName[spanKind(e.Name)] = append(s.byName[spanKind(e.Name)], sp)
		case "b":
			begins[asyncKey{e.Cat, e.ID}] = e.Ts
		case "e":
			k := asyncKey{e.Cat, e.ID}
			if t0, ok := begins[k]; ok && t0 >= lo && t0 <= hi {
				s.asyncUS[e.Cat] = append(s.asyncUS[e.Cat], e.Ts-t0)
			}
			delete(begins, k)
		case "M":
			if name, ok := e.Args["name"].(string); ok && e.Name == "thread_name" {
				s.threads[e.Tid] = name
			}
		}
	}
	// Nest each track's spans: a span's parent is the innermost earlier
	// span of the same track that contains it.
	for _, spans := range s.byTid {
		sort.Slice(spans, func(i, j int) bool {
			if spans[i].start != spans[j].start {
				return spans[i].start < spans[j].start
			}
			return spans[i].end > spans[j].end
		})
		var stack []*span
		for _, sp := range spans {
			for len(stack) > 0 && sp.end > stack[len(stack)-1].end {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 {
				sp.parent = stack[len(stack)-1]
				sp.parent.children = append(sp.parent.children, sp)
			}
			stack = append(stack, sp)
		}
	}
	return s, nil
}

// spanKind strips the per-job part of a span name ("job rocket|towers"
// → "job").
func spanKind(name string) string {
	switch {
	case strings.HasPrefix(name, "job "):
		return "job"
	case strings.HasPrefix(name, "serve job "):
		return "serve job"
	}
	return name
}

// durs returns the durations (µs) of every span of one kind.
func (s *spanSet) durs(kind string) []float64 {
	var out []float64
	for _, sp := range s.byName[kind] {
		out = append(out, sp.dur())
	}
	return out
}

// coreOf names the detailed core ("rocket" or "boom") a span ran on: the
// runner's enclosing job span says, found through the span's parents or,
// for a sampled-engine window worker's own track ("sample-w<tid>.<w>"),
// through the job span on the owning worker's track.
func (s *spanSet) coreOf(sp *span) string {
	for p := sp.parent; p != nil; p = p.parent {
		if c := jobCore(p.name); c != "" {
			return c
		}
	}
	name := s.threads[sp.tid]
	if !strings.HasPrefix(name, "sample-w") {
		return ""
	}
	owner, _, _ := strings.Cut(strings.TrimPrefix(name, "sample-w"), ".")
	tid, err := strconv.Atoi(owner)
	if err != nil {
		return ""
	}
	for _, p := range s.byTid[tid] {
		if c := jobCore(p.name); c != "" && p.start <= sp.start && sp.end <= p.end {
			return c
		}
	}
	return ""
}

func jobCore(name string) string {
	switch {
	case strings.HasPrefix(name, "job rocket|"):
		return "rocket"
	case strings.HasPrefix(name, "job boom|"):
		return "boom"
	}
	return ""
}

// simulateByCore sums full-detail simulate span time (µs) per core.
func (s *spanSet) simulateByCore() map[string]float64 {
	out := map[string]float64{}
	for _, sp := range s.byName["simulate"] {
		out[s.coreOf(sp)] += sp.dur()
	}
	return out
}

// layerOf maps a span to the module whose code it times.
func (s *spanSet) layerOf(sp *span) string {
	switch spanKind(sp.name) {
	case "job", "acquire-core":
		return "sim"
	case "simulate", "window":
		return s.coreOf(sp)
	case "tally":
		return "perf"
	case "simulate-sampled-par", "simulate-sampled", "warm-up":
		return "sample"
	case "plan-produce":
		return "isa"
	case "serve job":
		return "serve"
	}
	if sp.cat == "experiment" {
		return "experiments"
	}
	return "bench"
}

// selfByLayer sums span self time per layer, in ms over all tracks: a
// span's duration minus the part its children cover. Children are the
// spans nested in it on its own track, except where the work it waits
// for runs on other tracks: an experiment phase waits for the runner's
// job spans, and a serve job for the runner job it submitted (on the
// runner's RunOne track, which the serve workers share, so serve-mix
// self times are approximate).
func (s *spanSet) selfByLayer() map[string]float64 {
	jobs := s.byName["job"]
	out := map[string]float64{}
	for _, spans := range s.byTid {
		for _, sp := range spans {
			var cover float64
			switch {
			case sp.cat == "experiment":
				cover = covered(sp, within(jobs, sp))
			case spanKind(sp.name) == "serve job":
				for _, j := range within(jobs, sp) {
					cover = max(cover, j.dur())
				}
			default:
				cover = covered(sp, sp.children)
			}
			out[s.layerOf(sp)] += (sp.dur() - cover) / 1e3
		}
	}
	return out
}

// within returns the spans that lie inside sp's interval.
func within(spans []*span, sp *span) []*span {
	var out []*span
	for _, c := range spans {
		if c.start >= sp.start && c.end <= sp.end {
			out = append(out, c)
		}
	}
	return out
}

// covered is the length of the union of the children's intervals.
func covered(sp *span, children []*span) float64 {
	cs := append([]*span(nil), children...)
	sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
	var total float64
	reach := sp.start
	for _, c := range cs {
		lo, hi := max(c.start, reach), min(c.end, sp.end)
		if hi > lo {
			total += hi - lo
			reach = hi
		}
	}
	return total
}
