package cuts

import (
	"math/rand"
	"testing"

	"localmds/internal/ding"
	"localmds/internal/gen"
	"localmds/internal/graph"
)

// BenchmarkCutsScan times the sequential interesting-vertex scan at r = 4,
// the Cuts stage's dominant layer, on a zero-hit instance (a 50×50 grid)
// and a many-hit one (ding Mixed, t = 5, about 2k vertices).
func BenchmarkCutsScan(b *testing.B) {
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"grid-50x50", gen.Grid(50, 50)},
		{"ding-mixed-2k", ding.MustGenerate(ding.Config{Kind: ding.Mixed, N: 2000, T: 5}, rand.New(rand.NewSource(1)))},
	}
	for _, tc := range cases {
		c := tc.g.Freeze()
		b.Run(tc.name, func(b *testing.B) {
			a := graph.NewArena()
			var hits int
			for b.Loop() {
				hits = len(LocallyInterestingVerticesCSR(c, 4, a))
			}
			b.ReportMetric(float64(hits), "interesting")
		})
	}
}
