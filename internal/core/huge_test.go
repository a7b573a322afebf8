package core_test

// Alg1Huge is Algorithm 1's one CSR driver; these tests pin it, with and
// without a pool, field for field to the adjacency-list oracle
// Alg1Sequential (alg1_oracle_test.go). They live in an external test
// package so they can schedule on the real runner.Pool — core itself only
// sees the Submitter slice of it (importing runner from package core would
// cycle through experiments).

import (
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"
	"testing/quick"

	"localmds/internal/core"
	"localmds/internal/cuts"
	"localmds/internal/ding"
	"localmds/internal/gen"
	"localmds/internal/graph"
	"localmds/internal/mds"
	"localmds/internal/runner"
)

// equalAlg1Results fails the test unless the two results agree on every
// algorithmic field (StageStats carries timings and is never compared).
func equalAlg1Results(t *testing.T, got, want *core.Alg1Result) {
	t.Helper()
	if !graph.EqualSets(got.S, want.S) {
		t.Errorf("S = %v, want %v", got.S, want.S)
	}
	if !graph.EqualSets(got.X, want.X) {
		t.Errorf("X = %v, want %v", got.X, want.X)
	}
	if !graph.EqualSets(got.I, want.I) {
		t.Errorf("I = %v, want %v", got.I, want.I)
	}
	if !graph.EqualSets(got.U, want.U) {
		t.Errorf("U = %v, want %v", got.U, want.U)
	}
	if !graph.EqualSets(got.Active, want.Active) {
		t.Errorf("Active = %v, want %v", got.Active, want.Active)
	}
	if len(got.Components) != len(want.Components) {
		t.Fatalf("components = %d, want %d", len(got.Components), len(want.Components))
	}
	for i := range got.Components {
		if !graph.EqualSets(got.Components[i], want.Components[i]) {
			t.Errorf("component %d = %v, want %v", i, got.Components[i], want.Components[i])
		}
	}
	if got.MaxComponentDiameter != want.MaxComponentDiameter {
		t.Errorf("MaxComponentDiameter = %d, want %d", got.MaxComponentDiameter, want.MaxComponentDiameter)
	}
	if got.RoundsEstimate != want.RoundsEstimate {
		t.Errorf("RoundsEstimate = %d, want %d", got.RoundsEstimate, want.RoundsEstimate)
	}
	if got.BruteFallbacks != want.BruteFallbacks {
		t.Errorf("BruteFallbacks = %d, want %d", got.BruteFallbacks, want.BruteFallbacks)
	}
}

// TestAlg1HugeMatchesPipelineOnFamilies pins every entry point to the
// oracle on every workload family, including twin-heavy and
// multi-component instances and the greedy-fallback regime: Alg1Pipeline
// (goroutine fan-out), Alg1Huge on a runner.Pool, and Alg1Huge without a
// pool, which is mdsd's per-job call.
func TestAlg1HugeMatchesPipelineOnFamilies(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	multi := graph.DisjointUnion(
		ding.MustGenerate(ding.Config{Kind: ding.StripChain, N: 60, T: 5}, rng),
		graph.DisjointUnion(gen.Grid(4, 5), gen.RandomCactus(40, rng)),
	)
	tests := []struct {
		name string
		g    *graph.Graph
		p    core.Params
	}{
		{"path", gen.Path(30), core.PracticalParams()},
		{"cycle", gen.Cycle(24), core.Params{R1: 3, R2: 2}},
		{"tree", gen.RandomTree(60, rng), core.PracticalParams()},
		{"cactus", gen.RandomCactus(50, rng), core.PracticalParams()},
		{"outerplanar", gen.MaximalOuterplanar(20, rng), core.PracticalParams()},
		{"cliquependants", gen.CliquePendants(8), core.PracticalParams()},
		{"grid", gen.Grid(5, 6), core.PracticalParams()},
		{"ding-mixed", ding.MustGenerate(ding.Config{Kind: ding.Mixed, N: 70, T: 5}, rng), core.PracticalParams()},
		{"multi-component", multi, core.PracticalParams()},
		{"single", gen.Path(1), core.PracticalParams()},
		{"empty", graph.New(0), core.PracticalParams()},
		{"k4", gen.Complete(4), core.PracticalParams()},
		{"twins-complete-bipartite", gen.CompleteBipartite(3, 7), core.PracticalParams()},
		{"greedy-fallback", ding.MustGenerate(ding.Config{Kind: ding.StripChain, N: 80, T: 5}, rng),
			core.Params{R1: 4, R2: 4, MaxBruteComponent: 2}},
	}
	pool := runner.NewPool(4, 16)
	defer pool.Close()
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			want, err := core.Alg1Sequential(tt.g, tt.p)
			if err != nil {
				t.Fatalf("Alg1Sequential: %v", err)
			}
			pipe, err := core.Alg1Pipeline(tt.g, tt.p, core.PipelineOptions{Workers: 4})
			if err != nil {
				t.Fatalf("Alg1Pipeline: %v", err)
			}
			equalAlg1Results(t, pipe, want)
			for _, opt := range []core.HugeOptions{{Pool: pool}, {}} {
				got, err := core.Alg1Huge(tt.g.Freeze(), tt.p, opt)
				if err != nil {
					t.Fatalf("Alg1Huge: %v", err)
				}
				equalAlg1Results(t, got, want)
				if tt.g.N() > 0 && !mds.IsDominatingSet(tt.g, got.S) {
					t.Fatal("huge-driver result is not dominating")
				}
			}
		})
	}
}

// Property: on randomized multi-component instances the huge driver and
// the oracle agree on all fields, for random radii. CI runs this under
// -race, which also guards the component fan-out against data races.
func TestAlg1HugeMatchesPipelineProperty(t *testing.T) {
	pool := runner.NewPool(3, 8)
	defer pool.Close()
	f := func(seed int64, rawR1, rawR2, pick uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var g *graph.Graph
		switch pick % 3 {
		case 0:
			g = gen.GNPConnected(24, 0.1, rng)
		case 1:
			g = graph.DisjointUnion(gen.GNPConnected(14, 0.15, rng), gen.RandomCactus(16, rng))
		default:
			g = graph.DisjointUnion(gen.RandomTree(20, rng),
				graph.DisjointUnion(gen.Grid(3, 4), gen.CompleteBipartite(2, 5)))
		}
		p := core.Params{R1: int(rawR1%5) + 1, R2: int(rawR2%5) + 2}
		want, err := core.Alg1Sequential(g, p)
		if err != nil {
			return false
		}
		got, err := core.Alg1Huge(g.Freeze(), p, core.HugeOptions{Pool: pool})
		if err != nil {
			return false
		}
		return graph.EqualSets(got.S, want.S) &&
			graph.EqualSets(got.X, want.X) &&
			graph.EqualSets(got.I, want.I) &&
			graph.EqualSets(got.U, want.U) &&
			graph.EqualSets(got.Active, want.Active) &&
			got.MaxComponentDiameter == want.MaxComponentDiameter &&
			got.BruteFallbacks == want.BruteFallbacks &&
			len(got.Components) == len(want.Components)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// The huge driver's output must not depend on the worker count, and the
// nil-pool inline path must match every pool. The small instance fits in
// one Cuts block and is also pinned to the oracle. The others span
// several blocks, so Cuts really spreads over the drain loops: many hits
// (ding Mixed, where a pair scanned from one block marks vertices of
// another) and zero hits (grids). X and I must also equal the sequential
// whole-range cut scans of the reduced graph. CI runs this under -race,
// which guards the sharded Cuts stage against data races.
func TestAlg1HugeWorkerCountInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	small := graph.DisjointUnion(
		ding.MustGenerate(ding.Config{Kind: ding.StripChain, N: 60, T: 5}, rng),
		ding.MustGenerate(ding.Config{Kind: ding.Mixed, N: 60, T: 5}, rng),
	)
	grids := gen.Grid(15, 15)
	for i := 0; i < 3; i++ {
		grids = graph.DisjointUnion(grids, gen.Grid(15, 15))
	}
	tests := []struct {
		name  string
		g     *graph.Graph
		small bool // fits one Cuts block; compared with the oracle
		hits  bool // Cuts selects some vertex
	}{
		{"one-block", small, true, true},
		{"ding-mixed-2k", ding.MustGenerate(ding.Config{Kind: ding.Mixed, N: 2000, T: 5}, rng), false, true},
		{"grids", grids, false, false},
	}
	p := core.PracticalParams()
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			csr := tt.g.Freeze()
			base, err := core.Alg1Huge(csr, p, core.HugeOptions{})
			if err != nil {
				t.Fatal(err)
			}
			blocks := (len(base.Active) + core.CutsBlock - 1) / core.CutsBlock
			if tt.small != (blocks == 1) || (!tt.small && blocks < 3) {
				t.Fatalf("%d active vertices span %d Cuts blocks", len(base.Active), blocks)
			}
			if hits := len(base.X) + len(base.I); (hits > 0) != tt.hits {
				t.Fatalf("%d cut vertices, want hits=%v", hits, tt.hits)
			}
			if tt.small {
				want, err := core.Alg1Sequential(tt.g, p)
				if err != nil {
					t.Fatal(err)
				}
				equalAlg1Results(t, base, want)
			}
			rcsr, active := graph.TwinReduceCSR(csr)
			a := graph.NewArena()
			if want := mapActive(cuts.LocalOneCutsCSR(rcsr, p.R1, a), active); !graph.EqualSets(base.X, want) {
				t.Errorf("X = %v, sequential scan %v", base.X, want)
			}
			if want := mapActive(cuts.LocallyInterestingVerticesCSR(rcsr, p.R2, a), active); !graph.EqualSets(base.I, want) {
				t.Errorf("I = %v, sequential scan %v", base.I, want)
			}
			for _, w := range []int{1, 2, 3, 4, 8} {
				pool := runner.NewPool(w, 4*w)
				got, err := core.Alg1Huge(csr, p, core.HugeOptions{Pool: pool})
				pool.Close()
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				equalAlg1Results(t, got, base)
			}
		})
	}
}

// mapActive maps reduced-graph indices to sorted original labels.
func mapActive(local, active []int) []int {
	out := make([]int, len(local))
	for i, v := range local {
		out[i] = active[v]
	}
	sort.Ints(out)
	return out
}

// The huge driver must not mutate its input CSR (it may be a read-only
// mmap), and must record the same five stages as the pipeline.
func TestAlg1HugeInputUntouchedAndStages(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := ding.MustGenerate(ding.Config{Kind: ding.Mixed, N: 60, T: 5}, rng)
	csr := g.Freeze()
	before := csr.Fingerprint()
	res, err := core.Alg1Huge(csr, core.PracticalParams(), core.HugeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if csr.Fingerprint() != before {
		t.Fatal("Alg1Huge mutated its input CSR")
	}
	wantStages := []string{"TwinReduce", "Cuts", "Partition", "ComponentSolve", "Stitch"}
	if len(res.StageStats) != len(wantStages) {
		t.Fatalf("got %d stages, want %d", len(res.StageStats), len(wantStages))
	}
	for i, s := range res.StageStats {
		if s.Name != wantStages[i] {
			t.Errorf("stage %d = %q, want %q", i, s.Name, wantStages[i])
		}
	}
}

// countingPool is a Submitter that counts Submit calls and runs each
// submission on a real runner.Pool.
type countingPool struct {
	pool  *runner.Pool
	calls atomic.Int64
}

func (c *countingPool) Submit(fn func()) {
	c.calls.Add(1)
	c.pool.Submit(fn)
}

func (c *countingPool) Workers() int { return c.pool.Workers() }

// Cuts and ComponentSolve each start one drain loop per worker, never one
// task per block or component: each stage submits exactly min(Workers(),
// tasks) loops when that is at least two and none otherwise (the single
// loop runs inline), where Cuts' tasks are blocks of CutsBlock reduced
// vertices and ComponentSolve's are residual components. The output
// equals the oracle's either way.
func TestAlg1HugeSubmitsOneDrainLoopPerWorker(t *testing.T) {
	many := gen.Grid(3, 3)
	for i := 0; i < 5; i++ {
		many = graph.DisjointUnion(many, gen.Grid(3, 3))
	}
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"six-components", many},
		{"two-components", graph.DisjointUnion(gen.Grid(4, 4), gen.Grid(3, 5))},
		{"one-component", gen.Grid(6, 6)},
		{"multi-block", graph.DisjointUnion(graph.DisjointUnion(gen.Grid(12, 12), gen.Grid(12, 12)),
			graph.DisjointUnion(gen.Grid(12, 12), gen.Grid(12, 12)))},
	}
	p := core.PracticalParams()
	for _, tt := range graphs {
		want, err := core.Alg1Sequential(tt.g, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{1, 2, 3, 8} {
			cp := &countingPool{pool: runner.NewPool(w, 0)}
			got, err := core.Alg1Huge(tt.g.Freeze(), p, core.HugeOptions{Pool: cp})
			cp.pool.Close()
			if err != nil {
				t.Fatalf("%s workers=%d: %v", tt.name, w, err)
			}
			equalAlg1Results(t, got, want)
			blocks := (len(got.Active) + core.CutsBlock - 1) / core.CutsBlock
			comps := got.StageStats[2].Items // Partition: residual components
			loops := submittedLoops(w, blocks) + submittedLoops(w, comps)
			if n := cp.calls.Load(); n != loops {
				t.Errorf("%s workers=%d blocks=%d components=%d: %d Submit calls, want %d",
					tt.name, w, blocks, comps, n, loops)
			}
		}
	}
}

// submittedLoops is the number of drain loops one fanned-out stage submits
// for tasks tasks on w workers: none when a single loop runs inline.
func submittedLoops(w, tasks int) int64 {
	if loops := min(w, tasks); loops >= 2 {
		return int64(loops)
	}
	return 0
}
