package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"localmds/internal/core"
	"localmds/internal/ding"
	"localmds/internal/graph"
	"localmds/internal/graphio"
	"localmds/internal/mds"
	"localmds/internal/obs"
	"localmds/internal/runner"
)

// setupReps is how often a run repeats its set-up; setup_s is the
// median. The solve workloads' set-up takes a few milliseconds, where host
// noise is large, so they repeat it far more often than serve_mix, whose
// set-up starts a daemon.
const (
	setupReps      = 3
	solveSetupReps = 21
)

// hitReplays is the number of in-process hit-path replays the solve
// workloads time, replayChunk of them after each solve; their tail is the
// order statistic with 10 beyond it (p98).
const (
	hitReplays  = 500
	replayChunk = 50
)

// maxCutShare flags a degenerate solve: when Cuts selects nearly every
// active vertex, S is nearly V and the run would not measure Algorithm 1.
const maxCutShare = 0.95

// solveWorkload is one in-process solve path from an input file to a
// verified solution.
type solveWorkload struct {
	ext      string // input file extension
	generate func(seed int64) *graph.Graph
	write    func(path string, g *graph.Graph) error
	// solve loads path with the workload's graphio call and runs its
	// driver. With a non-nil parent span it traces the load and the
	// driver (through benchHooks) under it.
	solve   func(path string, parent *obs.Span) (res *core.Alg1Result, load float64, h *benchHooks, err error)
	workers int // the driver's ComponentSolve fan-out
}

// params are the radii every solve runs at: PracticalParams, r1 = r2 = 4.
// Smaller radii make every vertex a cut vertex (S = V).
func params() core.Params {
	p := core.PracticalParams()
	if p.R1 != 4 || p.R2 != 4 {
		panic(fmt.Sprintf("PracticalParams are r1=%d r2=%d; the benchmark is defined at 4/4", p.R1, p.R2))
	}
	return p
}

// runSolveDing: a ding Mixed instance (K_{2,5}-minor-free, about 8k
// vertices) as an edge-list file, read by graphio.ReadFile and solved by
// core.Alg1Pipeline — the path mdsd and `mdsrun -alg alg1` take.
func runSolveDing(o *options, rep *report) error {
	w := &solveWorkload{
		ext: ".edges",
		generate: func(seed int64) *graph.Graph {
			return ding.MustGenerate(ding.Config{Kind: ding.Mixed, N: 8000, T: 5}, rand.New(rand.NewSource(seed)))
		},
		write: func(path string, g *graph.Graph) error {
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			if err := graphio.WriteEdgeList(f, g); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		},
		workers: runtime.GOMAXPROCS(0),
	}
	w.solve = func(path string, parent *obs.Span) (*core.Alg1Result, float64, *benchHooks, error) {
		var g *graph.Graph
		var err error
		load := timedSpan(parent, "graphio.ReadFile", func() { g, err = graphio.ReadFile(path, graphio.FormatEdgeList) })
		if err != nil {
			return nil, load, nil, err
		}
		opt := core.PipelineOptions{}
		var h *benchHooks
		var res *core.Alg1Result
		if parent == nil {
			res, err = core.Alg1Pipeline(g, params(), opt)
			return res, load, nil, err
		}
		sp := parent.StartChild("core.Alg1Pipeline")
		h = newHooks(sp)
		opt.Hooks = h
		res, err = core.Alg1Pipeline(g, params(), opt)
		sp.End()
		return res, load, h, err
	}
	return runSolve(o, rep, w)
}

// runSolveGrids: a disjoint union of four grids of about 50×50 (10k
// vertices, shapes drawn from the seed) as a csrbin file, mapped by
// graphio.OpenCSRBin and solved by core.Alg1Huge on a runner.Pool of
// nproc workers — the huge-graph path.
func runSolveGrids(o *options, rep *report) error {
	pool := runner.NewPool(runtime.NumCPU(), 0)
	defer pool.Close()
	w := &solveWorkload{
		ext:      ".csrbin",
		generate: gridUnion,
		write:    func(path string, g *graph.Graph) error { return graphio.WriteCSRBinFile(path, g.Freeze()) },
		workers:  pool.Workers(),
	}
	w.solve = func(path string, parent *obs.Span) (*core.Alg1Result, float64, *benchHooks, error) {
		var m *graphio.MappedCSR
		var err error
		load := timedSpan(parent, "graphio.OpenCSRBin", func() { m, err = graphio.OpenCSRBin(path, graphio.OpenOptions{}) })
		if err != nil {
			return nil, load, nil, err
		}
		defer m.Close()
		opt := core.HugeOptions{Pool: pool}
		if parent == nil {
			res, err := core.Alg1Huge(&m.CSR, params(), opt)
			return res, load, nil, err
		}
		sp := parent.StartChild("core.Alg1Huge")
		h := newHooks(sp)
		opt.Hooks = h
		res, err := core.Alg1Huge(&m.CSR, params(), opt)
		sp.End()
		return res, load, h, err
	}
	return runSolve(o, rep, w)
}

// gridUnion returns four disjoint grids of about 2500 vertices each (10k
// in total) whose shapes are drawn from the seed: r rows in [40, 60] and
// round(2500/r) columns, vertices labelled row by row.
func gridUnion(seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	var edges [][2]int
	n := 0
	for c := 0; c < 4; c++ {
		rows := 40 + rng.Intn(21)
		cols := (2500 + rows/2) / rows
		for r := 0; r < rows; r++ {
			for k := 0; k < cols; k++ {
				v := n + r*cols + k
				if k+1 < cols {
					edges = append(edges, [2]int{v, v + 1})
				}
				if r+1 < rows {
					edges = append(edges, [2]int{v, v + cols})
				}
			}
		}
		n += rows * cols
	}
	return graph.FromEdgesUnchecked(n, edges)
}

// runSolve runs one solve workload: set-up (generate and write the input
// file, solveSetupReps times), then either the measured window with
// tracing off or the traced per-layer run, then the correctness checks.
func runSolve(o *options, rep *report, w *solveWorkload) error {
	dir, err := workDir(o)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var g *graph.Graph
	var path string
	var setups []float64
	for i := 0; i < solveSetupReps; i++ {
		p := filepath.Join(dir, fmt.Sprintf("input-%d%s", i, w.ext))
		runtime.GC() // each repetition starts from the same heap
		setups = append(setups, timeIt(func() {
			g = w.generate(o.seed)
			err = w.write(p, g)
		}))
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		path = p
	}
	rep.notef("instance: n=%d m=%d, file %s (%d bytes), r1=r2=%d", g.N(), g.M(), filepath.Base(path), fileSize(path), params().R1)

	var res *core.Alg1Result
	if o.trace {
		res, err = solveTraced(o, rep, w, g, path, dir)
	} else {
		rep.set("setup_s", median(setups))
		res, err = solveWindow(o, rep, w, g, path)
	}
	if err != nil {
		return err
	}
	checkSolution(rep, g, res)
	return nil
}

// solveWindow is the measured window with tracing off. Each round is
// one solve from the file (timed to the verified solution, with its own
// peak RSS) followed by replayChunk in-process replays of the request
// path a repeat of this instance takes through mdsd on a cache hit, until
// hitReplays replays are done. Rounds go on until the window has passed
// and at least three solves ran. Interleaving spreads both samples over
// the whole window, so a burst of host noise cannot land on one of them.
func solveWindow(o *options, rep *report, w *solveWorkload, g *graph.Graph, path string) (*core.Alg1Result, error) {
	start := time.Now()
	var first *core.Alg1Result
	var body *hitBody
	var times, rss, lat []float64
	solving := func() bool { return len(times) < 3 || time.Since(start) < o.window }
	for solving() || len(lat) < hitReplays {
		if solving() {
			// Start each solve from the same heap: collect, return free
			// pages to the OS, and restart the peak from there.
			debug.FreeOSMemory()
			if err := resetPeakRSS("self"); err != nil {
				return nil, err
			}
			var res *core.Alg1Result
			var err error
			ok := false
			d := timeIt(func() {
				res, _, _, err = w.solve(path, nil)
				ok = err == nil && mds.IsDominatingSet(g, res.S)
			})
			rep.op(ok)
			if err != nil {
				return nil, fmt.Errorf("solve: %w", err)
			}
			if !ok {
				rep.problemf("solve %d: S does not dominate the benchmark's copy of the graph", len(times))
			}
			if first == nil {
				first = res
				if body, err = newHitBody(g, first); err != nil {
					return nil, err
				}
			} else if len(res.S) != len(first.S) {
				rep.problemf("solve %d: |S|=%d, the first solve gave %d", len(times), len(res.S), len(first.S))
			}
			times = append(times, d)
			mb, err := peakRSSMB("self")
			if err != nil {
				return nil, err
			}
			rss = append(rss, mb)
		}
		lat = replayHits(rep, body, lat, min(replayChunk, hitReplays-len(lat)))
	}
	rep.set("solve_s", median(times))
	rep.set("peak_rss_mb", median(rss))
	rep.notef("solves in window: %d, solve_s quartiles %.4f / %.4f / %.4f s; peak RSS per solve median %.1f MB (max %.1f)",
		len(times), quantile(times, 0.25), median(times), quantile(times, 0.75), median(rss), quantile(rss, 1))
	setReplayFigures(rep, body, lat)
	rep.notef("window used %.2f s", time.Since(start).Seconds())
	return first, nil
}

// solveTraced is the per-layer run: three untraced and three traced
// solves, interleaved, give trace_overhead_frac and the stage times; then
// each layer is called directly on the same input.
func solveTraced(o *options, rep *report, w *solveWorkload, g *graph.Graph, path, dir string) (*core.Alg1Result, error) {
	tr, root := newBenchTrace(o)
	var untraced, traced, loads, verifies []float64
	stageWalls := map[string][]float64{}
	var res *core.Alg1Result
	var hooks *benchHooks
	for i := 0; i < 3; i++ {
		var err error
		d := timeIt(func() {
			res, _, _, err = w.solve(path, nil)
			if err == nil && !mds.IsDominatingSet(g, res.S) {
				err = fmt.Errorf("S does not dominate")
			}
		})
		rep.op(err == nil)
		if err != nil {
			return nil, fmt.Errorf("untraced solve: %w", err)
		}
		untraced = append(untraced, d)

		sp := root.StartChild(fmt.Sprintf("solve %d", i))
		var load, verify float64
		ok := false
		d = timeIt(func() {
			res, load, hooks, err = w.solve(path, sp)
			if err == nil {
				verify = timedSpan(sp, "mds.IsDominatingSet", func() { ok = mds.IsDominatingSet(g, res.S) })
			}
		})
		sp.End()
		rep.op(err == nil && ok)
		if err != nil || !ok {
			return nil, fmt.Errorf("traced solve: %v (dominating %v)", err, ok)
		}
		traced = append(traced, d)
		loads = append(loads, load)
		verifies = append(verifies, verify)
		for _, st := range pipelineStages {
			stageWalls[st.metric] = append(stageWalls[st.metric], hooks.stageWall(st.stage).Seconds())
		}
	}
	base := median(untraced)
	rep.set("trace_overhead_frac", median(traced)/base-1)
	accounted := median(loads) + median(verifies)
	for _, st := range pipelineStages {
		v := median(stageWalls[st.metric])
		rep.set(st.metric, v)
		accounted += v
	}
	rep.set("trace.accounted_frac", accounted/base)
	rep.notef("untraced solve %.4f s, traced %.4f s; stages + load + verify = %.4f s", base, median(traced), accounted)
	np, _ := params().Normalized()
	hooks.components(w.workers, np.MaxBruteComponent).set(rep, 1, np.MaxBruteComponent)

	csrbin := path
	if w.ext != ".csrbin" {
		csrbin = filepath.Join(dir, "input.csrbin")
		if err := graphio.WriteCSRBinFile(csrbin, g.Freeze()); err != nil {
			return nil, err
		}
	}
	lsp := root.StartChild("layers")
	var ls []solveLayers
	for i := 0; i < 3; i++ {
		l, err := measureSolveLayers(g, csrbin, res, params(), lsp)
		if err != nil {
			lsp.End()
			return nil, fmt.Errorf("layer calls: %w", err)
		}
		ls = append(ls, l)
	}
	setSolveLayers(rep, ls)

	body, err := newHitBody(g, res)
	if err != nil {
		lsp.End()
		return nil, err
	}
	if err := hitLayers(rep, []*hitBody{body}, 30, lsp); err != nil {
		lsp.End()
		return nil, err
	}
	setReplayFigures(rep, body, replayHits(rep, body, nil, hitReplays))
	payload, err := json.Marshal(body.outcome)
	if err != nil {
		lsp.End()
		return nil, err
	}
	payloads := [][]byte{payload, payload, payload, payload, payload}
	if err := storeLayers(rep, filepath.Join(dir, "store"), body.fp, payloads, lsp); err != nil {
		lsp.End()
		return nil, err
	}
	lsp.End()
	zeroServeLayers(rep)

	file, err := writeTrace(o, tr, root)
	if err != nil {
		return nil, err
	}
	rep.notef("trace written to %s", file)
	return res, nil
}

// replayHits appends the latencies of n in-process hit replays of body
// to lat; a failed replay is recorded as a problem with latency +Inf.
func replayHits(rep *report, body *hitBody, lat []float64, n int) []float64 {
	for i := 0; i < n; i++ {
		var err error
		d := timeIt(func() { _, err = replayHit(body) })
		rep.op(err == nil)
		if err != nil {
			rep.problemf("hit replay %d: %v", len(lat), err)
			d = inf
		}
		lat = append(lat, d)
	}
	return lat
}

// setReplayFigures reports the hit-path replay latencies: hit_p50_ms and
// service.hit_p99_ms, the tail with 10 samples beyond it (p98 of 500).
// The tail is a per-layer figure: host noise moves it run to run by more
// than any bound a regression gate could use.
func setReplayFigures(rep *report, body *hitBody, lat []float64) {
	p99, pct := tail(lat)
	rep.set("hit_p50_ms", 1000*median(lat))
	rep.set("service.hit_p99_ms", 1000*p99)
	rep.notef("hit path (in-process replay of this instance, %d bytes): %d samples, service.hit_p99_ms is p%.1f", len(body.req), len(lat), pct)
}

// checkSolution applies the checks every solve workload shares and sets
// the solution-quality figures: |S| must be below n (S = V is the
// degenerate regime), Cuts must not select nearly every active vertex,
// and the ratio to the 2-packing lower bound is recorded with its base.
func checkSolution(rep *report, g *graph.Graph, res *core.Alg1Result) {
	if !mds.IsDominatingSet(g, res.S) {
		rep.problemf("final S does not dominate")
	}
	share := cutShare(res)
	rep.set("core.cut_share", share)
	if len(res.S) >= g.N() {
		rep.problemf("degenerate solve: |S|=%d >= n=%d", len(res.S), g.N())
	}
	if share >= maxCutShare {
		rep.problemf("degenerate solve: cut share %.3f >= %.2f", share, maxCutShare)
	}
	lb := len(mds.TwoPacking(g))
	rep.set("mds_size", float64(len(res.S)))
	rep.set("ratio_lb", float64(len(res.S))/float64(lb))
	rep.notef("|S|=%d, 2-packing lower bound %d (ratio_lb base), |X|=%d |I|=%d active=%d components=%d brute fallbacks=%d, cut share %.3f",
		len(res.S), lb, len(res.X), len(res.I), len(res.Active), len(res.Components), res.BruteFallbacks, share)
}

func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return -1
	}
	return st.Size()
}
