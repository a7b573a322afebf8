package cuts

import (
	"math/rand"
	"testing"

	"localmds/internal/ding"
	"localmds/internal/gen"
	"localmds/internal/graph"
)

func randomCutGraph(n int, p float64, rng *rand.Rand) *graph.Graph {
	g := graph.New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				g.AddEdge(u, v)
			}
		}
	}
	// A sprinkle of pendants and bridges makes cut structure likely.
	for i := 0; i+1 < n; i += 5 {
		if !g.HasEdge(i, i+1) {
			g.AddEdge(i, i+1)
		}
	}
	return g
}

func TestLocalOneCutsCSRMatchesLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	a := graph.NewArena()
	for trial := 0; trial < 20; trial++ {
		g := randomCutGraph(20, 0.08, rng)
		c := g.Freeze()
		for _, r := range []int{1, 2, 3, 4} {
			want := LocalOneCuts(g, r)
			got := LocalOneCutsCSR(c, r, a)
			if !graph.EqualSets(got, want) {
				t.Fatalf("trial %d r=%d: CSR = %v, legacy = %v", trial, r, got, want)
			}
		}
	}
}

func TestLocallyInterestingVerticesCSRMatchesLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	a := graph.NewArena()
	for trial := 0; trial < 12; trial++ {
		g := randomCutGraph(16, 0.1, rng)
		c := g.Freeze()
		for _, r := range []int{2, 3, 4} {
			want := LocallyInterestingVertices(g, r)
			got := LocallyInterestingVerticesCSR(c, r, a)
			if !graph.EqualSets(got, want) {
				t.Fatalf("trial %d r=%d: CSR = %v, legacy = %v", trial, r, got, want)
			}
		}
	}
}

// TestLocallyInterestingCSRMatchesOracleOnFamilies checks the pair scan
// against the adjacency oracle on graphs large enough that a ball N^r[u]
// is a proper part of N^r[{u, v}], which is where the pre-filter's
// subgraph B_u differs from the full test's. It also checks that the
// marks of a 3-way split OR to the whole-range result.
func TestLocallyInterestingCSRMatchesOracleOnFamilies(t *testing.T) {
	rng := func() *rand.Rand { return rand.New(rand.NewSource(15)) }
	families := []struct {
		name string
		g    *graph.Graph
	}{
		{"grid-15x15", gen.Grid(15, 15)},
		{"ding-mixed-300", ding.MustGenerate(ding.Config{Kind: ding.Mixed, N: 300, T: 5}, rng())},
		{"cactus-300", gen.RandomCactus(300, rng())},
		{"outerplanar-200", gen.MaximalOuterplanar(200, rng())},
		{"tree-chords-300", gen.TreePlusChords(300, 40, 6, rng())},
	}
	a := graph.NewArena()
	for _, f := range families {
		c := f.g.Freeze()
		n := c.N()
		for _, r := range []int{2, 3, 4} {
			want := LocallyInterestingVertices(f.g, r)
			if got := LocallyInterestingVerticesCSR(c, r, a); !graph.EqualSets(got, want) {
				t.Fatalf("%s r=%d: CSR = %v, oracle = %v", f.name, r, got, want)
			}
			or := make([]bool, n)
			for _, cut := range [][2]int{{0, n / 3}, {n / 3, 2 * n / 3}, {2 * n / 3, n}} {
				marks := make([]bool, n)
				MarkLocallyInterestingCSR(c, r, cut[0], cut[1], marks, a)
				for v, ok := range marks {
					or[v] = or[v] || ok
				}
			}
			if got := markedVertices(or); !graph.EqualSets(got, want) {
				t.Fatalf("%s r=%d: OR of 3-way split = %v, oracle = %v", f.name, r, got, want)
			}
		}
	}
}

// TestPairPreFilterFires checks that on a grid, where only the pairs
// around a corner can separate, almost every candidate pair is settled by
// the pre-filter and never reaches the full 2-cut test.
func TestPairPreFilterFires(t *testing.T) {
	const r = 4
	c := gen.Grid(30, 30).Freeze()
	a := graph.NewArena()
	candidates := 0
	var ball []int32
	for u := 0; u < c.N(); u++ {
		ball = c.AppendBall(ball[:0], u, r, a)
		for _, v := range ball {
			if int(v) > u {
				candidates++
			}
		}
	}
	full := MarkLocallyInterestingCSR(c, r, 0, c.N(), make([]bool, c.N()), a)
	if full == 0 || float64(full) >= 0.02*float64(candidates) {
		t.Fatalf("%d of %d candidate pairs reached the full test, want some but under 2%%", full, candidates)
	}
}

func TestLocalCutsCSREdgeCases(t *testing.T) {
	a := graph.NewArena()
	// Single vertex, single edge, triangle: no cuts anywhere.
	for _, n := range []int{1, 2, 3} {
		g := graph.New(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				g.AddEdge(u, v)
			}
		}
		if got := LocalOneCutsCSR(g.Freeze(), 3, a); len(got) != 0 {
			t.Errorf("K%d: unexpected local 1-cuts %v", n, got)
		}
		if got := LocallyInterestingVerticesCSR(g.Freeze(), 3, a); len(got) != 0 {
			t.Errorf("K%d: unexpected interesting vertices %v", n, got)
		}
	}
	// A path's interior vertices are local 1-cuts at any radius.
	p := graph.New(5)
	for i := 0; i < 4; i++ {
		p.AddEdge(i, i+1)
	}
	if got := LocalOneCutsCSR(p.Freeze(), 2, a); !graph.EqualSets(got, []int{1, 2, 3}) {
		t.Errorf("path local 1-cuts = %v, want [1 2 3]", got)
	}
}
