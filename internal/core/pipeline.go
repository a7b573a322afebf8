package core

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"localmds/internal/graph"
	"localmds/internal/mds"
)

// This file holds Algorithm 1's stage vocabulary (StageStat, runStage),
// its adjacency-graph entry points (Alg1, Alg1Pipeline), and the per-stage
// helpers of its one driver, Alg1Huge (huge.go). The entry points freeze
// their *graph.Graph input once and hand the CSR to that driver, so twin
// reduction, cut enumeration, partitioning, component solving, and
// stitching each exist exactly once, all over the flat CSR view.

// StageStat is one pipeline stage's diagnostics. The JSON form (used by
// the mdsd service and any result archive) carries Wall as integer
// nanoseconds under "wall_ns".
type StageStat struct {
	// Name is the stage name (TwinReduce, Cuts, Partition, ComponentSolve,
	// Stitch).
	Name string `json:"name"`
	// Wall is the stage's wall-clock duration.
	Wall time.Duration `json:"wall_ns"`
	// Allocs is the number of heap objects allocated while the stage ran.
	// The counter is process-wide (concurrent activity outside the
	// pipeline inflates it) and approximate: the runtime aggregates
	// per-core allocation counts lazily, so small allocations may be
	// attributed to a later stage.
	Allocs uint64 `json:"allocs"`
	// Items is the stage's size statistic, counted in Unit.
	Items int `json:"items"`
	// Unit names what Items counts (e.g. "active vertices", "components").
	Unit string `json:"unit"`
}

// StageStats is the per-stage diagnostic trail of one pipeline run.
type StageStats []StageStat

// TotalWall returns the summed wall time of all stages.
func (ss StageStats) TotalWall() time.Duration {
	var total time.Duration
	for _, s := range ss {
		total += s.Wall
	}
	return total
}

// Render formats the stage table for terminal output.
func (ss StageStats) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-15s %-26s %12s %12s\n", "stage", "items", "wall", "allocs")
	var wall time.Duration
	var allocs uint64
	for _, s := range ss {
		fmt.Fprintf(&b, "%-15s %-26s %12s %12d\n",
			s.Name, fmt.Sprintf("%d %s", s.Items, s.Unit), s.Wall.Round(time.Microsecond), s.Allocs)
		wall += s.Wall
		allocs += s.Allocs
	}
	fmt.Fprintf(&b, "%-15s %-26s %12s %12d\n", "total", "", wall.Round(time.Microsecond), allocs)
	return b.String()
}

// PipelineOptions tunes Alg1Pipeline.
type PipelineOptions struct {
	// Workers bounds the Cuts and ComponentSolve fan-outs; <= 0 means
	// GOMAXPROCS. The result is identical for every worker count.
	Workers int
	// Hooks receives stage/component span callbacks; nil (the default)
	// disables tracing at zero cost. Hooks never change the result.
	Hooks TraceHooks
}

// Alg1 runs Algorithm 1 (Theorem 4.1) on g with the given radii:
//
//  1. reduce true twins,
//  2. take every vertex of an R1-local minimal 1-cut,
//  3. take every R2-interesting vertex of an R2-local minimal 2-cut,
//  4. per component of Ĝ - (X ∪ I ∪ U), brute-force a minimum set
//     dominating the still-undominated vertices.
//
// The result is always a dominating set of g; the 50-approximation
// guarantee of the paper applies for the PaperParams radii on
// K_{2,t}-minor-free inputs. Alg1 is Alg1Pipeline with default options;
// see Alg1Pipeline to bound the Cuts and component-solve fan-outs.
func Alg1(g *graph.Graph, p Params) (*Alg1Result, error) {
	return Alg1Pipeline(g, p, PipelineOptions{})
}

// Alg1Pipeline freezes g and runs Algorithm 1's staged CSR driver
// (Alg1Huge) on it, TwinReduce → Cuts → Partition → ComponentSolve →
// Stitch, with the cut scans and the component solves fanned out over
// opt.Workers goroutines. The result is deterministic and identical at every worker
// count.
func Alg1Pipeline(g *graph.Graph, p Params, opt PipelineOptions) (*Alg1Result, error) {
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return Alg1Huge(g.Freeze(), p, HugeOptions{Pool: goroutines(workers), Hooks: opt.Hooks})
}

// goroutines is the Submitter behind PipelineOptions.Workers: each Submit
// starts a plain goroutine, and each fanned-out stage (Cuts,
// ComponentSolve) submits at most Workers() drain loops and joins them
// before the next stage starts.
type goroutines int

func (n goroutines) Workers() int { return int(n) }

func (goroutines) Submit(fn func()) {
	//mdsvet:ignore boundedgo -- at most Workers() drain loops per fanned-out stage (Cuts, ComponentSolve), joined by fanOut before it returns; core cannot import runner.Pool (cycle)
	go fn()
}

// allocMetric is the runtime/metrics counter backing StageStat.Allocs;
// reading it does not stop the world.
const allocMetric = "/gc/heap/allocs:objects"

// runStage times fn, recording its wall clock, allocation delta, and
// returned size statistic under the given stage name. hooks (nil = off)
// observes the stage's span boundaries.
func (res *Alg1Result) runStage(hooks TraceHooks, name, unit string, sample []metrics.Sample, fn func() int) {
	var endSpan func(StageStat)
	if hooks != nil {
		endSpan = hooks.StageStart(name)
	}
	metrics.Read(sample)
	before := sample[0].Value.Uint64()
	start := time.Now()
	items := fn()
	wall := time.Since(start)
	metrics.Read(sample)
	stat := StageStat{
		Name:   name,
		Wall:   wall,
		Allocs: sample[0].Value.Uint64() - before,
		Items:  items,
		Unit:   unit,
	}
	res.StageStats = append(res.StageStats, stat)
	if endSpan != nil {
		endSpan(stat)
	}
}

// partitionResidual computes the Partition stage's split of the reduced
// graph: the domination bitmap induced by S1 = X ∪ I, the saturated set U
// (dominated vertices whose whole closed neighborhood is dominated), and
// the residual vertex set of Ĝ - (S1 ∪ U).
func partitionResidual(csr *graph.CSR, s1Local []int) (dominated []bool, uLocal []int, rest []int32) {
	n := csr.N()
	dominated = make([]bool, n)
	inS1 := make([]bool, n)
	for _, v := range s1Local {
		inS1[v] = true
		dominated[v] = true
		for _, u := range csr.Row(v) {
			dominated[u] = true
		}
	}
	rest = make([]int32, 0, n)
	for v := 0; v < n; v++ {
		if inS1[v] {
			continue
		}
		if dominated[v] && allDominatedCSR(csr, v, dominated) {
			uLocal = append(uLocal, v)
		} else {
			rest = append(rest, int32(v))
		}
	}
	return dominated, uLocal, rest
}

// stitchSolution assembles the final solution and diagnostics in component
// order, filling res.S, Components, MaxComponentDiameter, BruteFallbacks,
// and RoundsEstimate. It returns the solution size (the Stitch stage's
// item count).
func stitchSolution(res *Alg1Result, p Params, active, s1Local []int, comps [][]int32, outs []compOut) int {
	sol := append([]int(nil), s1Local...)
	for i := range outs {
		o := &outs[i]
		if !o.solved {
			continue
		}
		res.Components = append(res.Components, mapBack32(comps[i], active))
		if o.diam > res.MaxComponentDiameter {
			res.MaxComponentDiameter = o.diam
		}
		if o.fallback {
			res.BruteFallbacks++
		}
		sol = append(sol, o.chosen...)
	}
	res.S = mapBack(graph.Dedup(sol), active)
	res.RoundsEstimate = p.GatherRadius() + 2 + res.MaxComponentDiameter + 1
	return len(res.S)
}

// componentSolver is one worker's reusable state for ComponentSolve.
type componentSolver struct {
	csr       *graph.CSR
	dominated []bool
	p         Params
	arena     *graph.Arena
	hooks     TraceHooks // nil = tracing off
	sub       graph.CSR  // scratch induced-subgraph buffers, reused per component
	target    []int      // scratch local-target buffer
}

// solve handles one residual component: collect its undominated vertices,
// build the induced CSR, measure the diameter, and pick a minimum
// dominating set for the targets (exactly up to MaxBruteComponent, greedily
// beyond it). index is the component's position in the partition, used
// only to label its trace span.
func (cs *componentSolver) solve(index int, comp []int32) compOut {
	if cs.hooks != nil {
		end := cs.hooks.ComponentStart(index, len(comp))
		out := cs.solveBody(comp)
		end(len(out.chosen), out.fallback)
		return out
	}
	return cs.solveBody(comp)
}

// solveBody is the hook-free body of solve.
func (cs *componentSolver) solveBody(comp []int32) compOut {
	// comp is sorted, so local index i corresponds to vertex comp[i] and
	// the monotone relabeling matches graph.Induced's canonical one.
	target := cs.target[:0]
	for i, v := range comp {
		if !cs.dominated[v] {
			target = append(target, i)
		}
	}
	cs.target = target
	if len(target) == 0 {
		return compOut{}
	}
	cs.csr.InducedInto(&cs.sub, comp, cs.arena)
	out := compOut{solved: true, diam: cs.sub.Diameter(cs.arena)}
	var chosen []int
	if len(comp) <= cs.p.MaxBruteComponent {
		var err error
		chosen, err = mds.ExactBDominatingCSROpt(&cs.sub, target, mds.ExactOptions{MaxNodes: BruteNodeBudget})
		if err != nil {
			// Budget exhausted (the only reachable error here): greedy
			// fallback. Node counts are input-determined, so the same
			// components fall back at every worker count.
			out.fallback = true
			chosen = mds.GreedyBDominatingCSR(&cs.sub, target)
		}
	} else {
		out.fallback = true
		chosen = mds.GreedyBDominatingCSR(&cs.sub, target)
	}
	out.chosen = make([]int, len(chosen))
	for i, v := range chosen {
		out.chosen[i] = int(comp[v])
	}
	return out
}

// allDominatedCSR reports whether every vertex of N[v] is dominated,
// reading the CSR row directly.
func allDominatedCSR(c *graph.CSR, v int, dominated []bool) bool {
	if !dominated[v] {
		return false
	}
	for _, u := range c.Row(v) {
		if !dominated[u] {
			return false
		}
	}
	return true
}

// mapBack32 converts reduced-graph indices to sorted original labels.
func mapBack32(local []int32, active []int) []int {
	out := make([]int, 0, len(local))
	for _, v := range local {
		out = append(out, active[v])
	}
	sort.Ints(out)
	return out
}
