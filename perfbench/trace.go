package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"localmds/internal/core"
	"localmds/internal/obs"
)

// spanRec is one finished stage or component span as the hooks saw it.
type spanRec struct {
	name     string // stages only
	dur      time.Duration
	vertices int  // components only
	fallback bool // components only: solved greedily
}

// benchHooks is the benchmark's core.TraceHooks: every pipeline stage and
// every component solve becomes a child span in an obs trace (exported as
// a Chrome trace file) and a spanRec the per-layer figures are computed
// from. ComponentStart runs on the fan-out workers, hence the lock.
type benchHooks struct {
	parent *obs.Span

	mu     sync.Mutex
	stage  *obs.Span
	stages []spanRec
	comps  []spanRec
}

func newHooks(parent *obs.Span) *benchHooks { return &benchHooks{parent: parent} }

func (h *benchHooks) StageStart(name string) func(core.StageStat) {
	sp := h.parent.StartChild("core." + name)
	start := time.Now()
	h.mu.Lock()
	h.stage = sp
	h.mu.Unlock()
	return func(st core.StageStat) {
		d := time.Since(start)
		sp.SetAttr("items", fmt.Sprintf("%d %s", st.Items, st.Unit))
		sp.End()
		h.mu.Lock()
		h.stages = append(h.stages, spanRec{name: name, dur: d})
		h.mu.Unlock()
	}
}

func (h *benchHooks) ComponentStart(index, vertices int) func(chosen int, fallback bool) {
	h.mu.Lock()
	parent := h.stage
	h.mu.Unlock()
	sp := parent.StartChild(fmt.Sprintf("component %d", index))
	sp.SetAttr("vertices", vertices)
	start := time.Now()
	return func(chosen int, fallback bool) {
		d := time.Since(start)
		sp.SetAttr("chosen", chosen)
		sp.End()
		h.mu.Lock()
		h.comps = append(h.comps, spanRec{dur: d, vertices: vertices, fallback: fallback})
		h.mu.Unlock()
	}
}

// stageWall returns the wall time of the named stage (0 when it did not run).
// Component spans are children of ComponentSolve but belong to the same
// layer, so a stage's self time with respect to other layers is its wall.
func (h *benchHooks) stageWall(name string) time.Duration {
	for _, s := range h.stages {
		if s.name == name {
			return s.dur
		}
	}
	return 0
}

// pipelineStages are the five stages both drivers run, with the per-layer
// metric each one's wall time is reported as.
var pipelineStages = []struct{ stage, metric string }{
	{"TwinReduce", "core.twinreduce_s"},
	{"Cuts", "core.cuts_s"},
	{"Partition", "core.partition_s"},
	{"ComponentSolve", "core.componentsolve_s"},
	{"Stitch", "core.stitch_s"},
}

// componentStats summarises the component spans of traced solves. busy
// is Σ component span time / (ComponentSolve wall × workers); exact and
// under count components solved exactly and components under the
// brute-force cap, whose ratio is core.exact_useful_ratio.
type componentStats struct {
	count, maxVertices int
	maxDur             time.Duration
	busy               float64
	exact, under       int
}

// set reports the figures; solves is the number of traced solves the
// counts were summed over (count and busy are per solve).
func (cs componentStats) set(rep *report, solves int, bruteCap int) {
	rep.set("core.components", float64(cs.count)/float64(solves))
	rep.set("core.component_max_vertices", float64(cs.maxVertices))
	rep.set("core.component_max_s", cs.maxDur.Seconds())
	rep.set("core.fanout_busy_frac", cs.busy/float64(solves))
	ratio := 0.0
	if cs.under > 0 {
		ratio = float64(cs.exact) / float64(cs.under)
	} else {
		rep.notef("core.exact_useful_ratio: no component is under the brute-force cap of %d; reported as 0", bruteCap)
	}
	rep.set("core.exact_useful_ratio", ratio)
}

// add accumulates another solve's component figures.
func (cs *componentStats) add(o componentStats) {
	cs.count += o.count
	cs.maxVertices = max(cs.maxVertices, o.maxVertices)
	cs.maxDur = max(cs.maxDur, o.maxDur)
	cs.busy += o.busy
	cs.exact += o.exact
	cs.under += o.under
}

func (h *benchHooks) components(workers, bruteCap int) componentStats {
	var cs componentStats
	var total time.Duration
	for _, c := range h.comps {
		cs.count++
		total += c.dur
		cs.maxVertices = max(cs.maxVertices, c.vertices)
		cs.maxDur = max(cs.maxDur, c.dur)
		if c.vertices <= bruteCap {
			cs.under++
			if !c.fallback {
				cs.exact++
			}
		}
	}
	if wall := h.stageWall("ComponentSolve"); wall > 0 && workers > 0 {
		cs.busy = total.Seconds() / (wall.Seconds() * float64(workers))
	}
	return cs
}

// timedSpan runs fn as a child span of parent (no span when parent is
// nil) and returns fn's wall time in seconds.
func timedSpan(parent *obs.Span, name string, fn func()) float64 {
	if parent == nil {
		return timeIt(fn)
	}
	sp := parent.StartChild(name)
	d := timeIt(fn)
	sp.End()
	return d
}

// newBenchTrace starts the trace of one traced run.
func newBenchTrace(o *options) (*obs.Trace, *obs.Span) {
	id := fmt.Sprintf("perfbench-%s-seed%d", o.workload, o.seed)
	return obs.NewTrace(id, "perfbench "+o.workload, obs.TraceOptions{MaxSpans: 1 << 16})
}

// writeTrace ends root and writes the trace in Chrome trace-event format
// to .bench_build/traces, returning the file path.
func writeTrace(o *options, tr *obs.Trace, root *obs.Span) (string, error) {
	root.End()
	dir := filepath.Join(o.buildDir(), "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.trace.json", o.workload, o.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
