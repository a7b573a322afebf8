package graph

import (
	"math"
	"slices"
)

// CSR-native traversal operations. Everything in this file runs over the
// frozen flat arrays of a CSR and keeps its scratch state in an Arena, so
// hot consumers (the Algorithm 1 pipeline, the cut enumerators, the
// per-component solvers) never fall back to the allocating Graph accessors
// (Neighbors, Ball, Induced, Edges) inside their inner loops.

// Arena is reusable scratch for CSR traversals: a stamped visited array, a
// BFS queue and distance array, a stamped position map for induced-subgraph
// relabeling, and a component-label array. Arenas grow on demand and are
// sized to the largest CSR they have served, so a long-lived Arena makes
// repeated traversals allocation-free.
//
// An Arena is not safe for concurrent use; give each goroutine its own.
// Each operation taking an Arena invalidates the arena-owned outputs of the
// previous operation (appended dst slices are caller-owned and stay valid).
type Arena struct {
	mark  []int32 // visited iff mark[v] == stamp
	stamp int32
	dist  []int32 // BFS distance, valid where mark[v] == stamp
	queue []int32

	pos     []int32 // induced relabel map, valid where posMark[v] == posGen
	posMark []int32
	posGen  int32

	labels []int32 // ComponentLabels output
}

// NewArena returns an empty Arena; it grows to fit the graphs it serves.
func NewArena() *Arena { return &Arena{} }

// growMark ensures the visited/dist/queue arrays cover n vertices.
func (a *Arena) growMark(n int) {
	if len(a.mark) < n {
		a.mark = make([]int32, n)
		a.dist = make([]int32, n)
		a.stamp = 0
	}
	if cap(a.queue) < n {
		a.queue = make([]int32, 0, n)
	}
}

// nextMark starts a fresh visited generation.
func (a *Arena) nextMark() int32 {
	if a.stamp == math.MaxInt32 {
		for i := range a.mark {
			a.mark[i] = 0
		}
		a.stamp = 0
	}
	a.stamp++
	return a.stamp
}

// growPos ensures the position-map arrays cover n vertices.
func (a *Arena) growPos(n int) {
	if len(a.pos) < n {
		a.pos = make([]int32, n)
		a.posMark = make([]int32, n)
		a.posGen = 0
	}
}

// nextPos starts a fresh position-map generation.
func (a *Arena) nextPos() int32 {
	if a.posGen == math.MaxInt32 {
		for i := range a.posMark {
			a.posMark[i] = 0
		}
		a.posGen = 0
	}
	a.posGen++
	return a.posGen
}

// boundedBFS runs a multi-source BFS truncated at radius r (r < 0 means
// unbounded) and returns the reached vertices in BFS order as a view into
// the arena queue. Distances are in a.dist under the current mark.
func (c *CSR) boundedBFS(sources []int32, r int, a *Arena) []int32 {
	n := c.N()
	a.growMark(n)
	stamp := a.nextMark()
	q := a.queue[:0]
	for _, s := range sources {
		if a.mark[s] != stamp {
			a.mark[s] = stamp
			a.dist[s] = 0
			q = append(q, s)
		}
	}
	offs, tgts := c.Offsets, c.Targets
	for head := 0; head < len(q); head++ {
		v := q[head]
		d := a.dist[v]
		if int(d) == r {
			continue
		}
		for k := offs[v]; k < offs[v+1]; k++ {
			u := tgts[k]
			if a.mark[u] != stamp {
				a.mark[u] = stamp
				a.dist[u] = d + 1
				q = append(q, u)
			}
		}
	}
	a.queue = q[:0:cap(q)]
	return q
}

// AppendBall appends N^r[v] (all vertices at distance at most r from v) to
// dst in ascending order and returns the extended slice.
func (c *CSR) AppendBall(dst []int32, v, r int, a *Arena) []int32 {
	return c.appendReached(dst, []int32{int32(v)}, r, a)
}

// AppendBallOfSet appends N^r[sources] to dst in ascending order.
func (c *CSR) AppendBallOfSet(dst []int32, sources []int32, r int, a *Arena) []int32 {
	return c.appendReached(dst, sources, r, a)
}

func (c *CSR) appendReached(dst []int32, sources []int32, r int, a *Arena) []int32 {
	start := len(dst)
	dst = append(dst, c.boundedBFS(sources, r, a)...)
	slices.Sort(dst[start:])
	return dst
}

// AppendClosed appends the closed neighborhood N[v] = {v} ∪ N(v) to dst in
// ascending order and returns the extended slice.
func (c *CSR) AppendClosed(dst []int32, v int) []int32 {
	row := c.Row(v)
	self := int32(v)
	placed := false
	for _, u := range row {
		if !placed && self < u {
			dst = append(dst, self)
			placed = true
		}
		dst = append(dst, u)
	}
	if !placed {
		dst = append(dst, self)
	}
	return dst
}

// ClosedSubset reports whether N[v] ⊆ N[u] (closed neighborhoods in c),
// without materializing either set.
func (c *CSR) ClosedSubset(v, u int) bool {
	rv, ru := c.Row(v), c.Row(u)
	i, j := 0, 0
	iv, iu := int32(v), int32(u)
	next := func(row []int32, k *int, self int32, emitted *bool) (int32, bool) {
		// Merge self into the sorted row on the fly.
		if !*emitted && (*k >= len(row) || self < row[*k]) {
			*emitted = true
			return self, true
		}
		if *k < len(row) {
			x := row[*k]
			*k++
			return x, true
		}
		return 0, false
	}
	var doneV, doneU bool
	xv, okv := next(rv, &i, iv, &doneV)
	xu, oku := next(ru, &j, iu, &doneU)
	for okv {
		if !oku {
			return false
		}
		switch {
		case xv == xu:
			xv, okv = next(rv, &i, iv, &doneV)
			xu, oku = next(ru, &j, iu, &doneU)
		case xv > xu:
			xu, oku = next(ru, &j, iu, &doneU)
		default:
			return false
		}
	}
	return true
}

// InducedInto builds the induced subgraph c[verts] into out, reusing out's
// backing arrays. verts must be sorted ascending and duplicate-free; vertex
// i of the result is verts[i] (the relabeling is monotone, so rows stay
// sorted). The position map lives in the arena and is consumed by the call.
func (c *CSR) InducedInto(out *CSR, verts []int32, a *Arena) {
	a.growPos(c.N())
	gen := a.nextPos()
	for i, v := range verts {
		a.pos[v] = int32(i)
		a.posMark[v] = gen
	}
	if cap(out.Offsets) < len(verts)+1 {
		out.Offsets = make([]int32, 0, len(verts)+1)
	}
	out.Offsets = append(out.Offsets[:0], 0)
	out.Targets = out.Targets[:0]
	for _, v := range verts {
		for _, u := range c.Row(int(v)) {
			if a.posMark[u] == gen {
				out.Targets = append(out.Targets, a.pos[u])
			}
		}
		out.Offsets = append(out.Offsets, int32(len(out.Targets)))
	}
}

// SubsetComponents returns the connected components of c[members] in terms
// of c's labels: each component sorted ascending, components ordered by
// smallest member. members must be sorted ascending and duplicate-free.
// The component slices are freshly allocated (they outlive the arena); the
// traversal itself is arena-scratch only.
func (c *CSR) SubsetComponents(members []int32, a *Arena) [][]int32 {
	a.growPos(c.N())
	gen := a.nextPos()
	for _, v := range members {
		a.posMark[v] = gen
	}
	a.growMark(c.N())
	stamp := a.nextMark()
	var comps [][]int32
	offs, tgts := c.Offsets, c.Targets
	for _, v := range members {
		if a.mark[v] == stamp {
			continue
		}
		a.mark[v] = stamp
		comp := []int32{v}
		for head := 0; head < len(comp); head++ {
			x := comp[head]
			for k := offs[x]; k < offs[x+1]; k++ {
				y := tgts[k]
				if a.posMark[y] == gen && a.mark[y] != stamp {
					a.mark[y] = stamp
					comp = append(comp, y)
				}
			}
		}
		slices.Sort(comp)
		comps = append(comps, comp)
	}
	return comps
}

// ConnectedWithout reports whether c - {x} is connected. Graphs with at
// most one remaining vertex count as connected. For a connected c this is
// the cut-vertex test: x is a cut vertex iff ConnectedWithout(x) is false.
func (c *CSR) ConnectedWithout(x int, a *Arena) bool {
	n := c.N()
	if n <= 2 {
		return true
	}
	a.growMark(n)
	stamp := a.nextMark()
	a.mark[x] = stamp // pre-mark the excluded vertex so BFS never enters it
	start := 0
	if start == x {
		start = 1
	}
	a.mark[start] = stamp
	q := a.queue[:0]
	q = append(q, int32(start))
	reached := 1
	offs, tgts := c.Offsets, c.Targets
	for head := 0; head < len(q); head++ {
		v := q[head]
		for k := offs[v]; k < offs[v+1]; k++ {
			u := tgts[k]
			if a.mark[u] != stamp {
				a.mark[u] = stamp
				reached++
				q = append(q, u)
			}
		}
	}
	a.queue = q[:0:cap(q)]
	return reached == n-1
}

// NeighborsConnectedWithout reports whether the neighbors of w other than
// x all lie in one connected component of c - {w, x}. Fewer than two such
// neighbors count as connected. The BFS starts at one of them and stops as
// soon as it has reached them all.
func (c *CSR) NeighborsConnectedWithout(w, x int, a *Arena) bool {
	n := c.N()
	a.growPos(n)
	gen := a.nextPos() // posMark flags the targets; pos is unused
	start, want := int32(-1), 0
	for _, y := range c.Row(w) {
		if int(y) != x {
			a.posMark[y] = gen
			if start < 0 {
				start = y
			}
			want++
		}
	}
	if want < 2 {
		return true
	}
	a.growMark(n)
	stamp := a.nextMark()
	a.mark[w], a.mark[x], a.mark[start] = stamp, stamp, stamp
	q := append(a.queue[:0], start)
	reached := 1
	offs, tgts := c.Offsets, c.Targets
	for head := 0; head < len(q); head++ {
		v := q[head]
		for k := offs[v]; k < offs[v+1]; k++ {
			u := tgts[k]
			if a.mark[u] == stamp {
				continue
			}
			a.mark[u] = stamp
			if a.posMark[u] == gen {
				if reached++; reached == want {
					a.queue = q[:0:cap(q)]
					return true
				}
			}
			q = append(q, u)
		}
	}
	a.queue = q[:0:cap(q)]
	return false
}

// ComponentLabels labels the connected components of c - {u, v}: the
// returned slice has -1 at u and v and component IDs 0..k-1 elsewhere,
// assigned in order of smallest contained vertex; k is returned alongside.
// Pass v = -1 to exclude only u, and u = v = -1 to exclude nothing. The
// label slice is arena-owned and valid until the next ComponentLabels call
// on the same arena.
func (c *CSR) ComponentLabels(u, v int, a *Arena) ([]int32, int) {
	n := c.N()
	if len(a.labels) < n {
		a.labels = make([]int32, n)
	}
	labels := a.labels[:n]
	for i := range labels {
		labels[i] = -2
	}
	if u >= 0 {
		labels[u] = -1
	}
	if v >= 0 {
		labels[v] = -1
	}
	a.growMark(n)
	offs, tgts := c.Offsets, c.Targets
	num := int32(0)
	q := a.queue[:0]
	for s := 0; s < n; s++ {
		if labels[s] != -2 {
			continue
		}
		labels[s] = num
		q = append(q[:0], int32(s))
		for head := 0; head < len(q); head++ {
			x := q[head]
			for k := offs[x]; k < offs[x+1]; k++ {
				y := tgts[k]
				if labels[y] == -2 {
					labels[y] = num
					q = append(q, y)
				}
			}
		}
		num++
	}
	a.queue = q[:0:cap(q)]
	return labels, int(num)
}

// Eccentricity returns the maximum distance from v to any reachable vertex.
func (c *CSR) Eccentricity(v int, a *Arena) int {
	reached := c.boundedBFS([]int32{int32(v)}, -1, a)
	ecc := int32(0)
	for _, u := range reached {
		if d := a.dist[u]; d > ecc {
			ecc = d
		}
	}
	return int(ecc)
}

// Diameter returns the largest eccentricity over all vertices, considering
// only reachable pairs — allocation-free given a warm arena.
func (c *CSR) Diameter(a *Arena) int {
	diam := 0
	for v := 0; v < c.N(); v++ {
		if e := c.Eccentricity(v, a); e > diam {
			diam = e
		}
	}
	return diam
}

// FromCSR builds an adjacency-list Graph from a CSR in O(n + m) with two
// allocations (the row table and one shared backing buffer). It bridges
// CSR-first pipelines to solvers that still want a *Graph (the treewidth
// DPs); the result does not alias c.
func FromCSR(c *CSR) *Graph {
	n := c.N()
	buf := make([]int, len(c.Targets))
	for i, t := range c.Targets {
		buf[i] = int(t)
	}
	adj := make([][]int, n)
	for v := 0; v < n; v++ {
		adj[v] = buf[c.Offsets[v]:c.Offsets[v+1]:c.Offsets[v+1]]
	}
	return &Graph{adj: adj, m: len(c.Targets) / 2}
}
