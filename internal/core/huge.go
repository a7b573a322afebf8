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
// and a component fan-out that never holds more than `workers` induced
// component copies at once. Alg1 and Alg1Pipeline freeze their adjacency
// input and call it; the huge-graph ingestion path hands it a frozen,
// possibly mmap-backed, read-only CSR directly, so a 10^8-edge instance
// never materializes an adjacency intermediate.

// Submitter is the slice of runner.Pool that the ComponentSolve fan-out
// schedules on. (core cannot import runner directly: runner drives
// experiments, which import core.) Submit must run the function on some
// goroutine and may block until a worker frees up; Workers reports the
// concurrency bound. One solve submits at most Workers() functions.
type Submitter interface {
	Submit(fn func())
	Workers() int
}

// HugeOptions tunes Alg1Huge.
type HugeOptions struct {
	// Pool fans the per-component solves out; nil solves them in the
	// calling goroutine. The result is identical either way.
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

	arena := graph.NewArena()

	// Cuts: steps 2 and 3 on the reduced CSR.
	var xLocal, iLocal []int
	res.runStage(hooks, "Cuts", "cut vertices", sample, func() int {
		xLocal = cuts.LocalOneCutsCSR(rcsr, p.R1, arena)
		iLocal = cuts.LocallyInterestingVerticesCSR(rcsr, p.R2, arena)
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
		comps = rcsr.SubsetComponents(rest, arena)
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

// solveComponents is the ComponentSolve fan-out. It starts exactly
// w = min(pool.Workers(), len(comps)) drain loops; each owns one
// componentSolver, whose buffers grow to the largest component it sees,
// and pulls component indices from a shared counter. A single loop (w <= 1,
// or no pool) runs in the calling goroutine; otherwise every loop starts
// through pool.Submit and all are joined before returning.
func solveComponents(pool Submitter, csr *graph.CSR, dominated []bool, p Params, hooks TraceHooks, comps [][]int32) []compOut {
	outs := make([]compOut, len(comps))
	var next atomic.Int64
	drain := func() {
		cs := componentSolver{csr: csr, dominated: dominated, p: p, arena: graph.NewArena(), hooks: hooks}
		for i := int(next.Add(1) - 1); i < len(comps); i = int(next.Add(1) - 1) {
			outs[i] = cs.solve(i, comps[i])
		}
	}
	w := 1
	if pool != nil {
		w = min(pool.Workers(), len(comps))
	}
	if w <= 1 {
		drain()
		return outs
	}
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		pool.Submit(func() {
			defer wg.Done()
			drain()
		})
	}
	wg.Wait()
	return outs
}
