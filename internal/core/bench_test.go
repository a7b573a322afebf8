package core

import (
	"math/rand"
	"testing"

	"localmds/internal/ding"
	"localmds/internal/gen"
	"localmds/internal/graph"
)

// BenchmarkAlg1 measures the Algorithm 1 solver path end to end, pipeline
// vs the legacy sequential monolith (the test-only oracle, which is why the
// benchmark lives in this package), on the three shapes that stress
// different stages: a grid (cut enumeration dominates, one big residual
// component), a random K_{2,t}-minor-free instance (twin reduction + cuts),
// and a multi-component union of grids (ComponentSolve fans out across
// cores — the pipeline's headline case).
func BenchmarkAlg1(b *testing.B) {
	rng := rand.New(rand.NewSource(20))
	multi := gen.Grid(7, 7)
	for i := 0; i < 5; i++ {
		multi = graph.DisjointUnion(multi, gen.Grid(7, 7))
	}
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"grid", gen.Grid(12, 12)},
		{"minor-free", ding.MustGenerate(ding.Config{Kind: ding.Mixed, N: 240, T: 5}, rng)},
		{"multi-component", multi},
	}
	for _, tc := range cases {
		b.Run(tc.name+"/pipeline", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Alg1(tc.g, PracticalParams()); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(tc.name+"/legacy", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Alg1Sequential(tc.g, PracticalParams()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
