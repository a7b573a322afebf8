// CSR-native cut enumeration: ports of the Algorithm 1 step-2/step-3
// detectors (r-local minimal 1-cuts and r-interesting vertices) that run
// over a frozen graph.CSR with arena scratch instead of rebuilding induced
// ball subgraphs through the allocating Graph accessors. Each port returns
// exactly the set its adjacency-list counterpart returns; the pipeline
// equivalence suite in internal/core and FuzzCutsCSR check that.
//
// Both scans come in two forms. MarkLocalOneCutsCSR and
// MarkLocallyInterestingCSR scan a vertex range [lo, hi) into a
// caller-owned mark slice, so a caller can shard [0, n) into blocks and
// run them concurrently (core's Cuts stage does); LocalOneCutsCSR and
// LocallyInterestingVerticesCSR are the sequential whole-range wrappers.
// The interesting scan tests each unordered pair {u, v} once, from its
// smaller endpoint: the 2-cut test is symmetric and one test decides both
// directions. An exact pre-filter on the ball subgraph of u skips the
// pairs that cannot separate before they pay for their own ball (see
// MarkLocallyInterestingCSR); on a grid it settles all but the pairs
// around the corners.
package cuts

import (
	"slices"

	"localmds/internal/graph"
)

// LocalOneCutsCSR returns all vertices v such that {v} is an r-local
// minimal 1-cut of c (Definition 2.1 with k = 1), ascending.
func LocalOneCutsCSR(c *graph.CSR, r int, a *graph.Arena) []int {
	marks := make([]bool, c.N())
	MarkLocalOneCutsCSR(c, r, 0, c.N(), marks, a)
	return markedVertices(marks)
}

// MarkLocalOneCutsCSR sets marks[v] for every v in [lo, hi) such that {v}
// is an r-local minimal 1-cut of c. It writes no other entry of marks
// (len(marks) >= hi), so disjoint ranges may share one slice across
// goroutines. A ball subgraph is always connected (every member reaches
// its center inside the ball), so v is a local 1-cut iff removing v
// disconnects c[N^r[v]].
func MarkLocalOneCutsCSR(c *graph.CSR, r, lo, hi int, marks []bool, a *graph.Arena) {
	var ball []int32
	var sub graph.CSR
	for v := lo; v < hi; v++ {
		ball = c.AppendBall(ball[:0], v, r, a)
		if len(ball) < 3 {
			continue // graphs on <= 2 vertices have no cut vertex
		}
		c.InducedInto(&sub, ball, a)
		local, _ := slices.BinarySearch(ball, int32(v))
		if !sub.ConnectedWithout(local, a) {
			marks[v] = true
		}
	}
}

// LocallyInterestingVerticesCSR returns the set I of Algorithm 1 step 3 —
// all vertices that are r-interesting through some r-local minimal 2-cut
// (§3.2) — ascending, over the CSR view.
func LocallyInterestingVerticesCSR(c *graph.CSR, r int, a *graph.Arena) []int {
	marks := make([]bool, c.N())
	MarkLocallyInterestingCSR(c, r, 0, c.N(), marks, a)
	return markedVertices(marks)
}

// MarkLocallyInterestingCSR tests every pair {u, v} with lo <= u < hi,
// u < v and v ∈ N^r[u], and sets marks[w] (len(marks) = c.N()) for each
// endpoint w that is r-interesting through the r-local minimal 2-cut
// {u, v}. Marks only go from false to true, and a set mark is read only
// to skip work, so the OR of the marks over any split of [0, n) into
// ranges equals LocallyInterestingVerticesCSR. Since v may lie outside
// [lo, hi), concurrent ranges need marks of their own.
//
// A pair is a 2-cut candidate only if, in H = c[N^r[{u, v}]] - {u, v},
// the neighbors of u (and likewise of v) meet two components. The scan
// builds B_u = c[N^r[u]] once per u and skips a pair when u's neighbors
// other than v are joined in B_u - {u, v}, or v's neighbors other than u
// are joined there and all lie in N^r[u]. Both skips are exact: B_u is an
// induced subgraph of c[N^r[{u, v}]], so a path in B_u - {u, v} is a path
// in H, and B_u holds all of N(u) (r >= 1), and all of N(v) exactly when
// v's degree in B_u equals its degree in c. Only the surviving pairs pay
// for the ball-of-set build and the component labeling; their number is
// returned.
func MarkLocallyInterestingCSR(c *graph.CSR, r, lo, hi int, marks []bool, a *graph.Arena) (fullTests int) {
	var ballU, ball2, pair []int32
	var subU, sub graph.CSR
	var flags []bool // per-component scratch for the interestingness count
	for u := lo; u < hi; u++ {
		ballU = c.AppendBall(ballU[:0], u, r, a)
		// ballU is ascending: the pairs {u, v} with v < u were tested
		// from v.
		self, _ := slices.BinarySearch(ballU, int32(u))
		c.InducedInto(&subU, ballU, a)
		for lv := self + 1; lv < len(ballU); lv++ {
			v32 := ballU[lv]
			v := int(v32)
			if marks[u] && marks[v] {
				continue
			}
			if subU.NeighborsConnectedWithout(self, lv, a) ||
				subU.Degree(lv) == c.Degree(v) && subU.NeighborsConnectedWithout(lv, self, a) {
				continue
			}
			fullTests++
			// Build c[N^r[{u, v}]] once for the cut test and both
			// interestingness directions.
			pair = append(pair[:0], int32(u), v32)
			ball2 = c.AppendBallOfSet(ball2[:0], pair, r, a)
			c.InducedInto(&sub, ball2, a)
			hu, _ := slices.BinarySearch(ball2, int32(u))
			hv, _ := slices.BinarySearch(ball2, v32)
			// One component labeling of sub - {hu, hv} serves the cut test
			// and both interestingness directions (the exclusion order is
			// irrelevant, and nothing below invalidates the arena labels).
			labels, num := sub.ComponentLabels(hu, hv, a)
			if num < 2 || !seesTwoComponentsCSR(&sub, hu, labels) || !seesTwoComponentsCSR(&sub, hv, labels) {
				continue
			}
			if !marks[u] && isInterestingDirectionCSR(c, &sub, u, v, hv, labels, num, &flags) {
				marks[u] = true
			}
			if !marks[v] && isInterestingDirectionCSR(c, &sub, v, u, hu, labels, num, &flags) {
				marks[v] = true
			}
		}
	}
	return fullTests
}

// markedVertices returns the indices of the set marks, ascending.
func markedVertices(marks []bool) []int {
	var out []int
	for v, ok := range marks {
		if ok {
			out = append(out, v)
		}
	}
	return out
}

// seesTwoComponentsCSR reports whether w has neighbors in at least two
// distinct components per the labeling.
func seesTwoComponentsCSR(sub *graph.CSR, w int, labels []int32) bool {
	first := int32(-1)
	for _, y := range sub.Row(w) {
		c := labels[y]
		if c < 0 {
			continue
		}
		if first < 0 {
			first = c
		} else if c != first {
			return true
		}
	}
	return false
}

// isInterestingDirectionCSR reports whether self is r-interesting through
// the cut {self, other} (§3.2): N[self] ⊈ N[other] in the full graph, and
// at least two components of sub - cut each contain a vertex non-adjacent
// to other. sub must be c[N^r[{self, other}]], labels/num its component
// labeling with the cut pair excluded, and lOther the local index of
// other.
func isInterestingDirectionCSR(c, sub *graph.CSR, self, other, lOther int, labels []int32, num int, flags *[]bool) bool {
	if c.ClosedSubset(self, other) {
		return false
	}
	if cap(*flags) < num {
		*flags = make([]bool, num)
	}
	f := (*flags)[:num]
	for i := range f {
		f[i] = false
	}
	count := 0
	otherRow := sub.Row(lOther)
	for x := 0; x < sub.N(); x++ {
		lbl := labels[x]
		if lbl < 0 || f[lbl] {
			continue
		}
		if _, adjacent := slices.BinarySearch(otherRow, int32(x)); !adjacent {
			f[lbl] = true
			if count++; count >= 2 {
				return true
			}
		}
	}
	return false
}
