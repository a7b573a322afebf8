package cuts

import (
	"testing"

	"localmds/internal/graph"
)

// FuzzCutsCSR differentially checks the CSR cut scans against the
// adjacency-list oracles on small fuzzed graphs, and checks that the range
// primitives compose: marking any split of [0, n) range by range gives the
// whole-range result. The input decodes as
//
//	byte 0      vertex count n = 1 + b%16
//	byte 1      radius r = 1 + b%4
//	bytes 2..3  split mask: bit i-1 set cuts [0, n) before vertex i
//	rest        edge list, two bytes (u%n, v%n) per edge; loops dropped
func FuzzCutsCSR(f *testing.F) {
	f.Add([]byte{4, 1, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4})                                                    // path P5, one range
	f.Add([]byte{5, 2, 0xff, 0xff, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 0})                                  // cycle C6, singleton ranges
	f.Add([]byte{7, 3, 0x24, 0, 0, 1, 1, 2, 2, 3, 3, 0, 4, 5, 5, 6, 6, 7, 7, 4, 0, 4, 1, 5, 2, 6, 3, 7}) // cube Q3
	f.Add([]byte{8, 3, 0x10, 0x01, 0, 1, 0, 2, 1, 3, 2, 3, 3, 4, 4, 5, 4, 6, 5, 7, 6, 7, 7, 8})          // diamonds in series
	// Cycle C16 at r = 2 and the 4×4 grid at r = 1 and 2 (the last with
	// ranges [0, 3), [3, 6), [6, 10), [10, 13), [13, 16)) put v at distance
	// exactly r from u with a neighbor outside N^r[u], so the pre-filter's
	// v-side check must see that B_u lacks part of N(v).
	f.Add([]byte{15, 1, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13, 14, 14, 15, 15, 0})
	f.Add([]byte{15, 0, 0x80, 0, 0, 1, 0, 4, 1, 2, 1, 5, 2, 3, 2, 6, 3, 7, 4, 5, 4, 8, 5, 6, 5, 9, 6, 7, 6, 10, 7, 11, 8, 9, 8, 12, 9, 10, 9, 13, 10, 11, 10, 14, 11, 15, 12, 13, 13, 14, 14, 15})
	f.Add([]byte{15, 1, 0x24, 0x12, 0, 1, 0, 4, 1, 2, 1, 5, 2, 3, 2, 6, 3, 7, 4, 5, 4, 8, 5, 6, 5, 9, 6, 7, 6, 10, 7, 11, 8, 9, 8, 12, 9, 10, 9, 13, 10, 11, 10, 14, 11, 15, 12, 13, 13, 14, 14, 15})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		n, r := 1+int(data[0]%16), 1+int(data[1]%4)
		split := uint16(data[2]) | uint16(data[3])<<8
		g := graph.New(n)
		for rest := data[4:]; len(rest) >= 2; rest = rest[2:] {
			u, v := int(rest[0])%n, int(rest[1])%n
			if u != v && !g.HasEdge(u, v) {
				g.AddEdge(u, v)
			}
		}
		c := g.Freeze()
		a := graph.NewArena()

		oneCuts := LocalOneCutsCSR(c, r, a)
		if want := LocalOneCuts(g, r); !graph.EqualSets(oneCuts, want) {
			t.Fatalf("r=%d %v: LocalOneCutsCSR = %v, oracle = %v", r, g.Edges(), oneCuts, want)
		}
		interesting := LocallyInterestingVerticesCSR(c, r, a)
		if want := LocallyInterestingVertices(g, r); !graph.EqualSets(interesting, want) {
			t.Fatalf("r=%d %v: LocallyInterestingVerticesCSR = %v, oracle = %v", r, g.Edges(), interesting, want)
		}

		// Scan each range of the split with fresh interesting marks, as a
		// concurrent worker would, and all ranges into one 1-cut slice.
		sharedOneCut := make([]bool, n)
		orInteresting := make([]bool, n)
		for lo := 0; lo < n; {
			hi := lo + 1
			for hi < n && split&(1<<(hi-1)) == 0 {
				hi++
			}
			MarkLocalOneCutsCSR(c, r, lo, hi, sharedOneCut, a)
			for v, ok := range sharedOneCut {
				if ok && v >= hi {
					t.Fatalf("r=%d: 1-cut scan of [%d, %d) marked %d", r, lo, hi, v)
				}
			}
			marks := make([]bool, n)
			MarkLocallyInterestingCSR(c, r, lo, hi, marks, a)
			for v, ok := range marks {
				orInteresting[v] = orInteresting[v] || ok
			}
			lo = hi
		}
		if got := markedVertices(sharedOneCut); !graph.EqualSets(got, oneCuts) {
			t.Fatalf("r=%d split %#x: ranged 1-cuts = %v, whole range = %v", r, split, got, oneCuts)
		}
		if got := markedVertices(orInteresting); !graph.EqualSets(got, interesting) {
			t.Fatalf("r=%d split %#x: OR of ranged interesting marks = %v, whole range = %v", r, split, got, interesting)
		}
	})
}
