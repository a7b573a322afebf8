package core

import (
	"runtime/metrics"
	"sync"
	"sync/atomic"

	"localmds/internal/cuts"
	"localmds/internal/graph"
)

// This file is Algorithm 1's one driver. It runs every stage on a frozen
// graph.CSR — TwinReduceCSR, CSR-native cut enumeration and partitioning,
// and a component solve that never holds more than `workers` induced
// component copies at once. Two stages fan out over the driver's pool
// through one mechanism, fanOut: Cuts shards both cut scans over
// fixed-size vertex blocks, and ComponentSolve spreads the residual
// components. Alg1 and Alg1Pipeline freeze their adjacency input and call
// it; the huge-graph ingestion path hands it a frozen, possibly
// mmap-backed, read-only CSR directly, so a 10^8-edge instance never
// materializes an adjacency intermediate.

// Submitter is the slice of runner.Pool that the Cuts and ComponentSolve
// fan-outs schedule on. (core cannot import runner directly: runner drives
// experiments, which import core.) Submit must run the function on some
// goroutine and may block until a worker frees up; Workers reports the
// concurrency bound. Each fanned-out stage of a solve submits at most
// Workers() functions and joins them before the next stage starts.
type Submitter interface {
	Submit(fn func())
	Workers() int
}

// HugeOptions tunes Alg1Huge.
type HugeOptions struct {
	// Pool fans the Cuts scans and the per-component solves out; nil runs
	// both in the calling goroutine. The result is identical either way.
	Pool Submitter
	// Hooks receives stage/component span callbacks; nil (the default)
	// disables tracing at zero cost. Hooks never change the result.
	Hooks TraceHooks
}

// Alg1Huge runs Algorithm 1 on a frozen CSR view as the staged pipeline
// TwinReduce → Cuts → Partition → ComponentSolve → Stitch, partition-first:
// the shared input CSR feeds TwinReduce, Cuts, and Partition directly, and
// only the residual components — each a vanishing fraction of a huge
// near-planar instance — are ever copied out, at most one per pool worker
// at a time. The input CSR is never mutated (it may be an mmap of a
// csrbin file), and the result is deterministic and identical at every
// worker count.
func Alg1Huge(csr *graph.CSR, p Params, opt HugeOptions) (*Alg1Result, error) {
	p, err := p.normalized()
	if err != nil {
		return nil, err
	}
	if csr.N() == 0 {
		return &Alg1Result{}, nil
	}
	hooks := opt.Hooks

	res := &Alg1Result{}
	sample := make([]metrics.Sample, 1)
	sample[0].Name = allocMetric

	// TwinReduce: collapse true-twin classes on the CSR itself. When the
	// input has no twins this is a scan, not a copy.
	var rcsr *graph.CSR
	var active []int
	res.runStage(hooks, "TwinReduce", "active vertices", sample, func() int {
		rcsr, active = graph.TwinReduceCSR(csr)
		return len(active)
	})
	res.Active = append([]int(nil), active...)

	// Cuts: steps 2 and 3 on the reduced CSR.
	var xLocal, iLocal []int
	res.runStage(hooks, "Cuts", "cut vertices", sample, func() int {
		xLocal, iLocal = findCuts(opt.Pool, rcsr, p)
		return len(xLocal) + len(iLocal)
	})

	// Partition: the undominated set W, the saturated set U, and the
	// residual components of Ĝ - (X ∪ I ∪ U).
	var s1Local, uLocal []int
	var dominated []bool
	var comps [][]int32
	res.runStage(hooks, "Partition", "residual components", sample, func() int {
		s1Local = graph.SortedUnion(xLocal, iLocal)
		var rest []int32
		dominated, uLocal, rest = partitionResidual(rcsr, s1Local)
		comps = rcsr.SubsetComponents(rest, graph.NewArena())
		return len(comps)
	})
	res.X = mapBack(xLocal, active)
	res.I = mapBack(iLocal, active)
	res.U = mapBack(uLocal, active)

	// ComponentSolve: brute-force (or greedy, above the cap) each residual
	// component against its undominated vertices.
	var outs []compOut
	res.runStage(hooks, "ComponentSolve", "solved components", sample, func() int {
		outs = solveComponents(opt.Pool, rcsr, dominated, p, hooks, comps)
		solved := 0
		for i := range outs {
			if outs[i].solved {
				solved++
			}
		}
		return solved
	})

	// Stitch: assemble the solution and diagnostics in component order.
	res.runStage(hooks, "Stitch", "solution vertices", sample, func() int {
		return stitchSolution(res, p, active, s1Local, comps, outs)
	})
	return res, nil
}

// compOut is one component's ComponentSolve result, indexed by component so
// assembly order (and therefore the output) is independent of scheduling.
type compOut struct {
	chosen   []int // picked vertices, in reduced-graph labels
	diam     int   // component subgraph diameter
	solved   bool  // false when the component had no undominated vertex
	fallback bool  // solved greedily because it exceeded MaxBruteComponent
}

// cutsBlock is the number of vertices one Cuts task scans: small enough
// that a few thousand vertices spread over every worker, large enough that
// a task amortizes its scratch.
const cutsBlock = 256

// cutsLoop is one Cuts drain loop's state: its arena and its own
// interesting-vertex marks (a pair scanned from one block may mark a
// vertex of another, so loops cannot share them).
type cutsLoop struct {
	arena       *graph.Arena
	interesting []bool
}

// findCuts is the Cuts stage: the R1-local minimal 1-cuts X and the
// R2-interesting vertices I of c, both ascending. Both scans run block by
// block through fanOut. The 1-cut scan marks only the vertices of its own
// block, so all loops share one slice; the interesting marks of the loops
// are OR-merged in vertex order. Either way the result is the sequential
// one at every worker count.
func findCuts(pool Submitter, c *graph.CSR, p Params) (x, interesting []int) {
	n := c.N()
	oneCut := make([]bool, n)
	loops := fanOut(pool, (n+cutsBlock-1)/cutsBlock,
		func() *cutsLoop { return &cutsLoop{arena: graph.NewArena(), interesting: make([]bool, n)} },
		func(l *cutsLoop, b int) {
			lo, hi := b*cutsBlock, min((b+1)*cutsBlock, n)
			cuts.MarkLocalOneCutsCSR(c, p.R1, lo, hi, oneCut, l.arena)
			cuts.MarkLocallyInterestingCSR(c, p.R2, lo, hi, l.interesting, l.arena)
		})
	for v := 0; v < n; v++ {
		if oneCut[v] {
			x = append(x, v)
		}
		for _, l := range loops {
			if l.interesting[v] {
				interesting = append(interesting, v)
				break
			}
		}
	}
	return x, interesting
}

// solveComponents is the ComponentSolve fan-out: one componentSolver per
// drain loop, whose buffers grow to the largest component it sees.
func solveComponents(pool Submitter, csr *graph.CSR, dominated []bool, p Params, hooks TraceHooks, comps [][]int32) []compOut {
	outs := make([]compOut, len(comps))
	fanOut(pool, len(comps),
		func() *componentSolver {
			return &componentSolver{csr: csr, dominated: dominated, p: p, arena: graph.NewArena(), hooks: hooks}
		},
		func(cs *componentSolver, i int) { outs[i] = cs.solve(i, comps[i]) })
	return outs
}

// fanOut is core's one fan-out mechanism. It runs task(state, i) for every
// i in [0, tasks) over exactly w = min(pool.Workers(), tasks) drain loops;
// each loop builds its own state with newState and pulls task indices from
// a shared counter. A single loop (w <= 1, or no pool) runs in the calling
// goroutine; otherwise every loop starts through pool.Submit and all are
// joined before returning. It returns the loops' states, one per loop.
func fanOut[S any](pool Submitter, tasks int, newState func() S, task func(state S, i int)) []S {
	var next atomic.Int64
	drain := func() S {
		state := newState()
		for i := int(next.Add(1) - 1); i < tasks; i = int(next.Add(1) - 1) {
			task(state, i)
		}
		return state
	}
	w := 1
	if pool != nil {
		w = min(pool.Workers(), tasks)
	}
	if w <= 1 {
		return []S{drain()}
	}
	states := make([]S, w)
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		pool.Submit(func() {
			defer wg.Done()
			states[k] = drain()
		})
	}
	wg.Wait()
	return states
}
