package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"localmds/internal/core"
	"localmds/internal/cuts"
	"localmds/internal/graph"
	"localmds/internal/graphio"
	"localmds/internal/mds"
	"localmds/internal/obs"
	"localmds/internal/service"
	"localmds/internal/store"
)

// Request limits mdsd applies to every payload (internal/service keeps
// them unexported); the hit replay parses under the same bounds.
const (
	maxRequestVertices = 2_000_000
	maxRequestEdges    = 20_000_000
)

// hitBody is one input replayed through the layers mdsd runs on a cache
// hit: JSON decode of the request, parse, freeze, fingerprint, and JSON
// encode of the stored outcome.
type hitBody struct {
	req     []byte
	fp      graph.Fingerprint
	outcome *service.SolveOutcome
}

// newHitBody builds the request an mdsd client would send for g (an
// edge-list data payload) and the outcome a hit would return.
func newHitBody(g *graph.Graph, res *core.Alg1Result) (*hitBody, error) {
	var text bytes.Buffer
	if err := graphio.WriteEdgeList(&text, g); err != nil {
		return nil, err
	}
	req, err := json.Marshal(service.SolveRequest{Data: text.String(), Format: "edgelist"})
	if err != nil {
		return nil, err
	}
	fp := g.Freeze().Fingerprint()
	p, err := core.PracticalParams().Normalized()
	if err != nil {
		return nil, err
	}
	return &hitBody{req: req, fp: fp, outcome: &service.SolveOutcome{
		Fingerprint: fp.String(), N: g.N(), M: g.M(), Params: p, Valid: true, Result: res,
	}}, nil
}

// hitTimes are one hit replay's per-layer wall times in seconds.
type hitTimes struct{ decode, parse, freeze, fingerprint, encode float64 }

// replayHit runs one hit through the request-path layers and checks that
// the fingerprint it derives is the body's.
func replayHit(b *hitBody) (hitTimes, error) {
	var t hitTimes
	var req service.SolveRequest
	var err error
	t.decode = timeIt(func() { err = json.Unmarshal(b.req, &req) })
	if err != nil {
		return t, fmt.Errorf("decode: %w", err)
	}
	var g *graph.Graph
	t.parse = timeIt(func() {
		g, err = graphio.ReadLimited(strings.NewReader(req.Data), graphio.FormatEdgeList, maxRequestVertices, maxRequestEdges)
	})
	if err != nil {
		return t, fmt.Errorf("parse: %w", err)
	}
	var csr *graph.CSR
	t.freeze = timeIt(func() { csr = g.Freeze() })
	var fp graph.Fingerprint
	t.fingerprint = timeIt(func() { fp = csr.Fingerprint() })
	if fp != b.fp {
		return t, fmt.Errorf("fingerprint %s, want %s", fp, b.fp)
	}
	var buf bytes.Buffer
	t.encode = timeIt(func() {
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ") // as mdsd's writeJSON
		err = enc.Encode(service.JobView{ID: "bench", Status: "done", Cached: true, SolveOutcome: b.outcome})
	})
	return t, err
}

// hitLayers replays each body reps times and sets the per-layer medians.
func hitLayers(rep *report, bodies []*hitBody, reps int, parent *obs.Span) error {
	var dec, par, frz, fpr, enc []float64
	sp := parent.StartChild("hit-path replay")
	defer sp.End()
	for _, b := range bodies {
		for i := 0; i < reps; i++ {
			t, err := replayHit(b)
			if err != nil {
				return err
			}
			dec, par, frz, fpr, enc = append(dec, t.decode), append(par, t.parse), append(frz, t.freeze), append(fpr, t.fingerprint), append(enc, t.encode)
		}
	}
	rep.set("service.decode_s", median(dec))
	rep.set("graphio.parse_s", median(par))
	rep.set("graph.freeze_s", median(frz))
	rep.set("graph.fingerprint_s", median(fpr))
	rep.set("service.encode_s", median(enc))
	return nil
}

// solveLayers are the layer calls under one Algorithm 1 solve, each made
// by the benchmark on the same input and timed at the public function.
type solveLayers struct {
	open, twinCSR, twinAdj, oneCut, interesting, diameter, verify float64
	oneCutN, interestingN                                         int
}

// measureSolveLayers times graphio.OpenCSRBin on csrbinPath, both twin
// reductions, both cut scans on the reduced CSR, the exact diameter of
// every residual component of res, and the dominating-set check of res.S
// on g. It cross-checks the cut counts against res.
func measureSolveLayers(g *graph.Graph, csrbinPath string, res *core.Alg1Result, p core.Params, parent *obs.Span) (solveLayers, error) {
	var l solveLayers
	var err error
	var m *graphio.MappedCSR
	l.open = timedSpan(parent, "graphio.OpenCSRBin", func() { m, err = graphio.OpenCSRBin(csrbinPath, graphio.OpenOptions{}) })
	if err != nil {
		return l, err
	}
	if err := m.Close(); err != nil {
		return l, err
	}
	csr := g.Freeze()
	var rcsr *graph.CSR
	l.twinCSR = timedSpan(parent, "graph.TwinReduceCSR", func() { rcsr, _ = graph.TwinReduceCSR(csr) })
	l.twinAdj = timedSpan(parent, "graph.TwinReduction", func() { g.TwinReduction() })
	arena := graph.NewArena()
	var x, iv []int
	l.oneCut = timedSpan(parent, "cuts.LocalOneCutsCSR", func() { x = cuts.LocalOneCutsCSR(rcsr, p.R1, arena) })
	l.interesting = timedSpan(parent, "cuts.LocallyInterestingVerticesCSR", func() { iv = cuts.LocallyInterestingVerticesCSR(rcsr, p.R2, arena) })
	l.oneCutN, l.interestingN = len(x), len(iv)
	if len(x) != len(res.X) || len(iv) != len(res.I) {
		return l, fmt.Errorf("cut scans found |X|=%d |I|=%d, the solve %d and %d", len(x), len(iv), len(res.X), len(res.I))
	}
	l.diameter = timedSpan(parent, "graph.CSR.Diameter", func() {
		var sub graph.CSR
		var verts []int32
		for _, comp := range res.Components {
			verts = verts[:0]
			for _, v := range comp {
				verts = append(verts, int32(v))
			}
			csr.InducedInto(&sub, verts, arena)
			sub.Diameter(arena)
		}
	})
	ok := false
	l.verify = timedSpan(parent, "mds.IsDominatingSet", func() { ok = mds.IsDominatingSet(g, res.S) })
	if !ok {
		return l, fmt.Errorf("solution does not dominate")
	}
	return l, nil
}

// setSolveLayers reports the mean of per-input layer figures.
func setSolveLayers(rep *report, ls []solveLayers) {
	var open, tc, ta, oc, ocn, in, inn, dia, ver []float64
	for _, l := range ls {
		open, tc, ta = append(open, l.open), append(tc, l.twinCSR), append(ta, l.twinAdj)
		oc, ocn = append(oc, l.oneCut), append(ocn, float64(l.oneCutN))
		in, inn = append(in, l.interesting), append(inn, float64(l.interestingN))
		dia, ver = append(dia, l.diameter), append(ver, l.verify)
	}
	rep.set("graphio.open_s", mean(open))
	rep.set("graph.twinreduce_csr_s", mean(tc))
	rep.set("graph.twinreduce_adj_s", mean(ta))
	rep.set("cuts.onecut_s", mean(oc))
	rep.set("cuts.onecut_vertices", mean(ocn))
	rep.set("cuts.interesting_s", mean(in))
	rep.set("cuts.interesting_vertices", mean(inn))
	rep.set("graph.diameter_s", mean(dia))
	rep.set("mds.verify_s", mean(ver))
}

// cutShare is |X ∪ I| over the active (twin-reduced) vertex count.
func cutShare(res *core.Alg1Result) float64 {
	if len(res.Active) == 0 {
		return 0
	}
	return float64(len(graph.SortedUnion(res.X, res.I))) / float64(len(res.Active))
}

// storeLayers times store.Put and store.Get of the payloads under the
// daemon's durability policy (fsync always) in a fresh directory, and
// checks every payload reads back intact. It reports the medians.
func storeLayers(rep *report, dir string, fp graph.Fingerprint, payloads [][]byte, parent *obs.Span) error {
	sp := parent.StartChild("store put/get")
	defer sp.End()
	st, err := store.Open(store.Options{Dir: dir, Fsync: store.FsyncAlways})
	if err != nil {
		return err
	}
	defer st.Close()
	var puts, gets []float64
	for i, p := range payloads {
		key := store.Key{Fingerprint: fp, Params: fmt.Sprintf("perfbench-%d", i)}
		puts = append(puts, timeIt(func() { err = st.Put(key, time.Now().UnixNano(), p) }))
		if err != nil {
			return err
		}
	}
	for i, p := range payloads {
		key := store.Key{Fingerprint: fp, Params: fmt.Sprintf("perfbench-%d", i)}
		var e *store.Entry
		gets = append(gets, timeIt(func() { e, err = st.Get(key) }))
		if err != nil {
			return err
		}
		if !bytes.Equal(e.Payload, p) {
			return fmt.Errorf("store returned a different payload for entry %d", i)
		}
	}
	rep.set("store.put_s", median(puts))
	rep.set("store.get_s", median(gets))
	return os.RemoveAll(dir)
}

// zeroServeLayers sets the figures only the daemon workload produces to 0
// on the in-process workloads, which have no daemon, cache or generator.
func zeroServeLayers(rep *report) {
	for _, name := range []string{
		"service.cache_hit_ratio", "service.computations", "service.queue_wait_mean_ms",
		"service.solve_wall_mean_ms", "service.gc_pause_s", "store.hit_ratio", "store.bytes",
		"loadgen.late_p99_ms", "loadgen.max_ok_rps", "loadgen.miss_p50_ms", "loadgen.miss_tail_ms",
		"loadgen.hot_sent", "loadgen.hot_failed", "loadgen.cold_sent", "loadgen.cold_failed",
	} {
		rep.set(name, 0)
	}
}
