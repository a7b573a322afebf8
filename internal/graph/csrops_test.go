package graph

import (
	"math/rand"
	"testing"
)

// randomGraph builds a connected-ish random instance for op equivalence.
func opsRandomGraph(n int, p float64, rng *rand.Rand) *Graph {
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

func toInts(s []int32) []int {
	out := make([]int, len(s))
	for i, v := range s {
		out[i] = int(v)
	}
	return out
}

func TestCSRAppendBallMatchesBall(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		g := opsRandomGraph(24, 0.08, rng)
		c := g.Freeze()
		a := NewArena()
		for v := 0; v < g.N(); v++ {
			for _, r := range []int{0, 1, 2, 4} {
				want := g.Ball(v, r)
				got := toInts(c.AppendBall(nil, v, r, a))
				if !EqualSets(got, want) {
					t.Fatalf("Ball(%d, %d) = %v, want %v", v, r, got, want)
				}
			}
		}
	}
}

func TestCSRAppendBallOfSet(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := opsRandomGraph(30, 0.08, rng)
	c := g.Freeze()
	a := NewArena()
	for trial := 0; trial < 30; trial++ {
		u, v := rng.Intn(30), rng.Intn(30)
		want := g.BallOfSet([]int{u, v}, 3)
		got := toInts(c.AppendBallOfSet(nil, []int32{int32(u), int32(v)}, 3, a))
		if !EqualSets(got, want) {
			t.Fatalf("BallOfSet({%d,%d}, 3) = %v, want %v", u, v, got, want)
		}
	}
}

func TestCSRAppendClosedAndClosedSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := opsRandomGraph(20, 0.15, rng)
	c := g.Freeze()
	for v := 0; v < g.N(); v++ {
		want := g.ClosedNeighborhood(v)
		got := toInts(c.AppendClosed(nil, v))
		if !EqualSets(got, want) {
			t.Fatalf("AppendClosed(%d) = %v, want %v", v, got, want)
		}
	}
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			want := IsSubset(g.ClosedNeighborhood(v), g.ClosedNeighborhood(u))
			if got := c.ClosedSubset(v, u); got != want {
				t.Fatalf("ClosedSubset(%d, %d) = %v, want %v", v, u, got, want)
			}
		}
	}
}

func TestCSRInducedIntoMatchesInduced(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 25; trial++ {
		g := opsRandomGraph(22, 0.12, rng)
		c := g.Freeze()
		a := NewArena()
		var verts []int32
		for v := 0; v < g.N(); v++ {
			if rng.Intn(2) == 0 {
				verts = append(verts, int32(v))
			}
		}
		want, idx := g.Induced(toInts(verts))
		var sub CSR
		c.InducedInto(&sub, verts, a)
		if sub.N() != want.N() {
			t.Fatalf("induced n = %d, want %d", sub.N(), want.N())
		}
		for i := range idx {
			if got := toInts(sub.Row(i)); !EqualSets(got, want.Neighbors(i)) {
				t.Fatalf("induced row %d = %v, want %v", i, got, want.Neighbors(i))
			}
		}
	}
}

func TestCSRSubsetComponentsMatchesGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 25; trial++ {
		g := opsRandomGraph(26, 0.07, rng)
		c := g.Freeze()
		a := NewArena()
		var subset []int
		var subset32 []int32
		for v := 0; v < g.N(); v++ {
			if rng.Intn(3) != 0 {
				subset = append(subset, v)
				subset32 = append(subset32, int32(v))
			}
		}
		want := g.ComponentsOfSubset(subset)
		got := c.SubsetComponents(subset32, a)
		if len(got) != len(want) {
			t.Fatalf("got %d components, want %d", len(got), len(want))
		}
		for i := range got {
			if !EqualSets(toInts(got[i]), want[i]) {
				t.Fatalf("component %d = %v, want %v", i, got[i], want[i])
			}
		}
	}
}

func TestCSRConnectedWithoutMatchesDelete(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 25; trial++ {
		g := opsRandomGraph(16, 0.15, rng)
		c := g.Freeze()
		a := NewArena()
		for v := 0; v < g.N(); v++ {
			del, _ := g.Delete([]int{v})
			want := del.Connected()
			if got := c.ConnectedWithout(v, a); got != want {
				t.Fatalf("ConnectedWithout(%d) = %v, want %v", v, got, want)
			}
		}
	}
}

func TestCSRNeighborsConnectedWithoutMatchesLabels(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := NewArena()
	for trial := 0; trial < 25; trial++ {
		g := opsRandomGraph(14, 0.18, rng)
		c := g.Freeze()
		for w := 0; w < c.N(); w++ {
			for x := 0; x < c.N(); x++ {
				if x == w {
					continue
				}
				labels, _ := c.ComponentLabels(w, x, a)
				want, first := true, int32(-1)
				for _, y := range c.Row(w) {
					if int(y) == x {
						continue
					}
					if first < 0 {
						first = labels[y]
					} else if labels[y] != first {
						want = false
					}
				}
				if got := c.NeighborsConnectedWithout(w, x, a); got != want {
					t.Fatalf("trial %d: NeighborsConnectedWithout(%d, %d) = %v, want %v", trial, w, x, got, want)
				}
			}
		}
	}
}

func TestCSRComponentLabels(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		g := opsRandomGraph(18, 0.12, rng)
		c := g.Freeze()
		a := NewArena()
		u, v := rng.Intn(18), rng.Intn(18)
		labels, num := c.ComponentLabels(u, v, a)
		del, idx := g.Delete(Dedup([]int{u, v}))
		if want := del.NumComponents(); num != want {
			t.Fatalf("ComponentLabels(%d, %d) count = %d, want %d", u, v, num, want)
		}
		wantIDs := del.ComponentIDs()
		for i, orig := range idx {
			if int(labels[orig]) != wantIDs[i] {
				t.Fatalf("label[%d] = %d, want %d", orig, labels[orig], wantIDs[i])
			}
		}
		if labels[u] != -1 || labels[v] != -1 {
			t.Fatalf("excluded vertices labeled %d/%d", labels[u], labels[v])
		}
	}
}

func TestCSRDiameterMatchesGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 15; trial++ {
		g := opsRandomGraph(20, 0.1, rng)
		c := g.Freeze()
		a := NewArena()
		if got, want := c.Diameter(a), g.Diameter(); got != want {
			t.Fatalf("Diameter = %d, want %d", got, want)
		}
	}
}

func TestFromCSRRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := opsRandomGraph(25, 0.12, rng)
	h := FromCSR(g.Freeze())
	if err := h.Validate(); err != nil {
		t.Fatalf("FromCSR result invalid: %v", err)
	}
	if !g.Equal(h) {
		t.Fatal("FromCSR round trip differs from original")
	}
}

func TestVisitEdgesMatchesEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	g := opsRandomGraph(15, 0.2, rng)
	want := g.Edges()
	var visited [][2]int
	g.VisitEdges(func(u, v int) { visited = append(visited, [2]int{u, v}) })
	if len(visited) != len(want) {
		t.Fatalf("VisitEdges saw %d edges, want %d", len(visited), len(want))
	}
	for i := range want {
		if visited[i] != want[i] {
			t.Fatalf("edge %d = %v, want %v", i, visited[i], want[i])
		}
	}
}

// Arena reuse across many mixed operations must not corrupt results.
func TestArenaReuseStress(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := NewArena()
	for trial := 0; trial < 10; trial++ {
		g := opsRandomGraph(12+rng.Intn(20), 0.12, rng)
		c := g.Freeze()
		for v := 0; v < g.N(); v++ {
			ball := c.AppendBall(nil, v, 2, a)
			var sub CSR
			c.InducedInto(&sub, ball, a)
			if sub.N() != len(ball) {
				t.Fatalf("induced size %d, want %d", sub.N(), len(ball))
			}
			want, _ := g.Induced(toInts(ball))
			for i := 0; i < sub.N(); i++ {
				if !EqualSets(toInts(sub.Row(i)), want.Neighbors(i)) {
					t.Fatalf("trial %d v %d: induced row %d mismatch", trial, v, i)
				}
			}
		}
	}
}
