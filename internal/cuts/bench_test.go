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
// and a many-hit one (ding Mixed, t = 5, about 2k vertices). fulltests/op
// counts the pairs that got past the pre-filter to the full 2-cut test.
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
			marks := make([]bool, c.N())
			var full int
			for b.Loop() {
				clear(marks)
				full = MarkLocallyInterestingCSR(c, 4, 0, c.N(), marks, a)
			}
			b.ReportMetric(float64(len(markedVertices(marks))), "interesting")
			b.ReportMetric(float64(full), "fulltests/op")
		})
	}
}
