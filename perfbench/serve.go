package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"localmds/internal/core"
	"localmds/internal/gen"
	"localmds/internal/graph"
	"localmds/internal/graphio"
	"localmds/internal/mds"
	"localmds/internal/obs"
	"localmds/internal/service"
)

// serve_mix shape. The memory cache (cacheEntries) is a third of the hot
// catalogue, so the Zipf head is served from memory and the tail from the
// disk store. In the measured window the hot stream runs at the nominal
// rate hotRates[0] and the cold stream at coldRate. The traced run adds a
// hot-only ladder through the higher rates (half a window in all) for
// loadgen.max_ok_rps. The nominal rate is low so that, with one cold solve
// in flight, the daemon and the generator keep a vCPU of a 2-vCPU host
// mostly free: at 200/s a busy host core slowed the miss median by half,
// at 50/s by a fifth.
const (
	catalogueSize = 36
	cacheEntries  = 12
	zipfS         = 1.2
	coldRate      = 5.0
	// hitLimit is the latency limit on the hot tail for max_ok_rps.
	hitLimit = 0.050
	// hitBlock is the block of consecutive hot requests
	// service.hit_p99_ms takes one tail of: 500 requests leave 10 beyond
	// the p98.
	hitBlock = 500
)

var hotRates = []float64{50, 200, 500, 1000, 2000}

// coldShapes cycle over the cold stream: fresh bodies of 100 to 700
// vertices, each one a miss that queues, solves and persists. The sizes
// are chosen so every shape solves in about the same time (~50 ms on a
// 2-vCPU Xeon); many small misses keep the miss median steady from seed
// to seed.
var coldShapes = []struct {
	kind string
	n    int
}{
	{"ding", 700}, {"cactus", 500}, {"outerplanar", 110},
	{"ding", 600}, {"cactus", 550}, {"outerplanar", 100},
}

// body is one request payload with the benchmark's own copy of its graph.
type body struct {
	name string
	g    *graph.Graph
	req  []byte
	fp   string // the benchmark's own graph.Fingerprint of the body

	// Catalogue bodies only, from the pre-warm response.
	wantS   int
	outcome *service.SolveOutcome
}

// catalogueShape gives the generator kind and size of hot rank i: the
// kinds rotate so every seed's head has the same mix of shapes.
func catalogueShape(i int) (string, int) {
	switch i % 3 {
	case 0:
		return "ding", 200 + 100*((i/3)%6)
	case 1:
		return "cactus", 200 + 100*((i/3)%6)
	default:
		return "outerplanar", 100 + 50*((i/3)%3)
	}
}

func makeBody(seed int64, stream string, i int, kind string, n int) (*body, error) {
	rng := rand.New(rand.NewSource(gen.DeriveSeed(seed, "serve_mix", stream, strconv.Itoa(i))))
	g, err := gen.FromKind(kind, n, 5, 0, rng)
	if err != nil {
		return nil, err
	}
	var text bytes.Buffer
	if err := graphio.WriteEdgeList(&text, g); err != nil {
		return nil, err
	}
	req, err := json.Marshal(service.SolveRequest{Data: text.String(), Format: "edgelist"})
	if err != nil {
		return nil, err
	}
	return &body{name: fmt.Sprintf("%s-%s%d-%d", stream, kind, n, i), g: g, req: req}, nil
}

// serveInputs are the generated bodies of one serve_mix run.
type serveInputs struct {
	hot  []*body // catalogue, rank order (rank 0 is the most popular)
	cold []*body // one fresh body per cold request
}

func makeServeInputs(seed int64, coldCount int) (*serveInputs, error) {
	in := &serveInputs{}
	for i := 0; i < catalogueSize; i++ {
		kind, n := catalogueShape(i)
		b, err := makeBody(seed, "hot", i, kind, n)
		if err != nil {
			return nil, err
		}
		in.hot = append(in.hot, b)
	}
	for i := 0; i < coldCount; i++ {
		sh := coldShapes[i%len(coldShapes)]
		b, err := makeBody(seed, "cold", i, sh.kind, sh.n)
		if err != nil {
			return nil, err
		}
		in.cold = append(in.cold, b)
	}
	return in, nil
}

// fingerprints fills in each body's fingerprint and checks that no cold
// body repeats another body: every cold request must be a miss.
func (in *serveInputs) fingerprints() error {
	seen := map[string]string{}
	for _, b := range append(append([]*body(nil), in.hot...), in.cold...) {
		b.fp = b.g.Freeze().Fingerprint().String()
		if other, dup := seen[b.fp]; dup {
			return fmt.Errorf("bodies %s and %s are the same graph", other, b.name)
		}
		seen[b.fp] = b.name
	}
	return nil
}

// daemon is one mdsd process.
type daemon struct {
	cmd  *exec.Cmd
	base string
	done chan struct{} // closed when its stdout reaches EOF
}

// startDaemon execs mdsd on a loopback port with a durable store and
// waits until /healthz answers.
func startDaemon(bin, storeDir string) (*daemon, error) {
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-workers", strconv.Itoa(runtime.NumCPU()),
		"-cache", strconv.Itoa(cacheEntries),
		"-queue", "1024",
		"-store-dir", storeDir,
		"-store-fsync", "always")
	cmd.Stderr = os.Stderr
	// Should this process die without stopping the daemon, the kernel
	// kills it rather than leave it running.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(d.done)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "mdsd: listening on "); ok {
				select {
				case addr <- a:
				default:
				}
			}
		}
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.done:
		_ = cmd.Wait()
		return nil, errors.New("mdsd exited before listening")
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, errors.New("mdsd did not report its address within 30s")
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, errors.New("mdsd /healthz not ready within 30s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop drains the daemon with SIGTERM (kill after 30s) and waits for it.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
	return d.cmd.Wait()
}

func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.done
	_ = d.cmd.Wait()
}

func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

func post(c *http.Client, url string, payload []byte) (int, []byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(payload))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// serveSetup is one set-up: generate the inputs, exec mdsd until
// /healthz is ready, and pre-warm the catalogue (tail first, so the head
// is what the memory cache holds when the window opens). The pre-warm
// sends one request at a time, so set-up keeps to one solve in flight as
// the window does.
// phases receives the wall time of each of the three steps.
func serveSetup(o *options, dir string, coldCount int, phases *[3]float64) (*serveInputs, *daemon, [][]byte, error) {
	t := time.Now()
	in, err := makeServeInputs(o.seed, coldCount)
	if err != nil {
		return nil, nil, nil, err
	}
	phases[0] = time.Since(t).Seconds()
	t = time.Now()
	d, err := startDaemon(filepath.Join(o.buildDir(), "mdsd"), filepath.Join(dir, "store"))
	if err != nil {
		return nil, nil, nil, err
	}
	phases[1] = time.Since(t).Seconds()
	t = time.Now()
	raw := make([][]byte, len(in.hot))
	errs := make([]error, len(in.hot))
	client := newClient(1)
	for i := len(in.hot) - 1; i >= 0; i-- {
		var status int
		status, raw[i], errs[i] = post(client, d.base+"/v1/solve", in.hot[i].req)
		if errs[i] == nil && status != http.StatusOK {
			errs[i] = fmt.Errorf("status %d", status)
		}
	}
	client.CloseIdleConnections()
	phases[2] = time.Since(t).Seconds()
	if err := errors.Join(errs...); err != nil {
		d.kill()
		return nil, nil, nil, fmt.Errorf("pre-warm: %w", err)
	}
	return in, d, raw, nil
}

// shot is one scheduled request and what came of it.
type shot struct {
	b    *body
	due  time.Duration // from window start
	hot  bool
	step int     // hot rate step
	late float64 // s from due to send
	lat  float64 // s from due to checked response; +Inf when failed
	ok   bool
	why  string
	s    []int // cold: the returned solution
}

// leanResp is the part of a solve response the generator checks.
type leanResp struct {
	Cached      bool   `json:"cached"`
	Valid       bool   `json:"valid"`
	Fingerprint string `json:"fingerprint"`
	Result      *struct {
		S []int `json:"s"`
	} `json:"result"`
}

// fire sends one request and checks the response: status 200, valid,
// the benchmark's own fingerprint, a cache hit with the pre-warmed |S|
// (hot) or a fresh computation (cold). Anything else is a failure.
func fire(c *http.Client, url string, sh *shot, start time.Time) {
	hot := sh.hot
	due := start.Add(sh.due)
	sh.late = time.Since(due).Seconds()
	status, b, err := post(c, url, sh.b.req)
	sh.lat = time.Since(due).Seconds()
	var r leanResp
	switch {
	case err != nil:
		sh.why = "transport: " + err.Error()
	case status != http.StatusOK:
		sh.why = fmt.Sprintf("status %d", status)
	case json.Unmarshal(b, &r) != nil || r.Result == nil:
		sh.why = "undecodable response"
	case !r.Valid:
		sh.why = "valid=false"
	case r.Fingerprint != sh.b.fp:
		sh.why = "fingerprint mismatch"
	case hot && (!r.Cached || len(r.Result.S) != sh.b.wantS):
		sh.why = fmt.Sprintf("hot response cached=%v |S|=%d, want a hit with |S|=%d", r.Cached, len(r.Result.S), sh.b.wantS)
	case !hot && r.Cached:
		sh.why = "cold response was served from cache"
	default:
		sh.ok = true
		if !hot {
			sh.s = r.Result.S
		}
	}
	if !sh.ok {
		sh.lat = inf
	}
}

// runStream is an open-loop generator: it releases each shot at its due
// time, whatever is still in flight, to conns workers (one connection
// each) shared by both streams. A shot waiting for a free worker is late,
// and its latency counts from its due time.
func runStream(c *http.Client, url string, shots []*shot, conns int, start time.Time) {
	ch := make(chan *shot, len(shots)) // sized to the number of sends: the dispatcher never blocks
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for sh := range ch {
				fire(c, url, sh, start)
			}
		}()
	}
	for _, sh := range shots {
		if d := time.Until(start.Add(sh.due)); d > 0 {
			time.Sleep(d)
		}
		ch <- sh
	}
	close(ch)
	wg.Wait()
}

// scrape reads /metrics into series -> value.
func scrape(base string) (map[string]float64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	m := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		l := sc.Text()
		if l == "" || l[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(l, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(l[i+1:], 64)
		if err != nil {
			continue
		}
		m[l[:i]] = v
	}
	return m, sc.Err()
}

// runServeMix: mdsd as its own process with a durable store, driven by a
// hot stream of Zipf-repeated pre-solved bodies at a fixed nominal rate
// and a cold stream of fresh bodies at a low fixed rate. The traced run
// then steps the hot stream through higher rates for loadgen.max_ok_rps.
func runServeMix(o *options, rep *report) error {
	dir, err := workDir(o)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	coldCount := int(coldRate * o.window.Seconds())

	var in *serveInputs
	var d *daemon
	var raw [][]byte
	var setups []float64
	for i := 0; i < setupReps; i++ {
		sdir := filepath.Join(dir, fmt.Sprintf("setup-%d", i))
		var ph [3]float64
		setups = append(setups, timeIt(func() { in, d, raw, err = serveSetup(o, sdir, coldCount, &ph) }))
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		rep.notef("set-up %d: %.3f s (inputs %.3f s, mdsd ready %.3f s, pre-warm %.3f s)", i, setups[i], ph[0], ph[1], ph[2])
		if i < setupReps-1 {
			if err := d.stop(); err != nil {
				return fmt.Errorf("stopping set-up daemon: %w", err)
			}
		}
	}
	defer func() {
		if d != nil {
			d.kill()
		}
	}()
	if !o.trace {
		rep.set("setup_s", median(setups))
	}
	if err := in.fingerprints(); err != nil {
		return err
	}
	if err := checkPrewarm(rep, in, raw); err != nil {
		return err
	}

	zipf := rand.NewZipf(rand.New(rand.NewSource(gen.DeriveSeed(o.seed, "serve_mix", "zipf"))), zipfS, 1, uint64(len(in.hot)-1))
	hot := hotShots(in, zipf, hotRates[0], 0, o.window, 0)
	cold := coldShots(in)
	before, err := scrape(d.base)
	if err != nil {
		return err
	}
	pid := strconv.Itoa(d.cmd.Process.Pid)
	stop := make(chan struct{})
	var rss []float64
	var rssErr error
	var rwg sync.WaitGroup
	rwg.Add(1)
	go func() {
		defer rwg.Done()
		rss, rssErr = sampleRSS(pid, o.window/4, stop)
	}()
	elapsed := drive(d.base, hot, cold)
	close(stop)
	rwg.Wait()
	if rssErr != nil {
		return rssErr
	}
	rep.notef("window %.2f s over %d connections; mdsd peak RSS per quarter window %.1f MB median, %.1f max",
		elapsed.Seconds(), runtime.NumCPU(), median(rss), quantile(rss, 1))
	after, err := scrape(d.base)
	if err != nil {
		return err
	}
	if !o.trace {
		rep.set("peak_rss_mb", median(rss))
	}
	var ladder []*shot
	if o.trace {
		span := o.window / 2 / time.Duration(len(hotRates)-1)
		for k, rate := range hotRates[1:] {
			ladder = append(ladder, hotShots(in, zipf, rate, time.Duration(k)*span, span, k+1)...)
		}
		drive(d.base, ladder, nil)
	}
	dd := d
	d = nil
	if err := dd.stop(); err != nil {
		rep.problemf("mdsd did not drain cleanly: %v", err)
	}

	hotOK, coldOK := windowFigures(rep, hot, cold)
	metricDeltas(rep, before, after, hotOK, coldOK)
	checkCold(rep, cold)
	if err := checkOffline(rep, in, cold); err != nil {
		return err
	}
	if o.trace {
		ladderFigures(rep, hot, ladder)
		return serveTraced(o, rep, in, dir)
	}
	return nil
}

// drive runs the hot and cold streams, merged in due order, over nproc
// connections from one start instant, and returns once every request
// has completed.
func drive(base string, hot, cold []*shot) time.Duration {
	shots := append(append([]*shot(nil), hot...), cold...)
	sort.SliceStable(shots, func(i, j int) bool { return shots[i].due < shots[j].due })
	conns := runtime.NumCPU()
	c := newClient(conns)
	start := time.Now().Add(50 * time.Millisecond)
	runStream(c, base+"/v1/solve", shots, conns, start)
	c.CloseIdleConnections()
	return time.Since(start)
}

// checkPrewarm verifies every pre-warm response against the benchmark's
// own copy of its body, records |S| for the hot checks, and sets the
// solution-quality figures over the catalogue: mds_size is Σ|S| and
// ratio_lb is Σ|S| over Σ 2-packing lower bounds.
func checkPrewarm(rep *report, in *serveInputs, raw [][]byte) error {
	sumS, sumLB, sumN, sumCut, sumActive := 0, 0, 0, 0, 0
	for i, b := range in.hot {
		var v service.JobView
		if err := json.Unmarshal(raw[i], &v); err != nil || v.SolveOutcome == nil || v.Result == nil {
			return fmt.Errorf("pre-warm %s: undecodable response", b.name)
		}
		rep.op(true)
		switch {
		case !v.Valid:
			rep.problemf("pre-warm %s: valid=false", b.name)
		case v.Fingerprint != b.fp:
			rep.problemf("pre-warm %s: fingerprint %s, want %s", b.name, v.Fingerprint, b.fp)
		case !mds.IsDominatingSet(b.g, v.Result.S):
			rep.problemf("pre-warm %s: S does not dominate", b.name)
		}
		b.wantS = len(v.Result.S)
		b.outcome = v.SolveOutcome
		sumS += len(v.Result.S)
		sumLB += len(mds.TwoPacking(b.g))
		sumN += b.g.N()
		sumCut += len(graph.SortedUnion(v.Result.X, v.Result.I))
		sumActive += len(v.Result.Active)
	}
	share := float64(sumCut) / float64(sumActive)
	if sumS >= sumN {
		rep.problemf("degenerate catalogue: Σ|S|=%d >= Σn=%d", sumS, sumN)
	}
	if share >= maxCutShare {
		rep.problemf("degenerate catalogue: cut share %.3f >= %.2f", share, maxCutShare)
	}
	rep.set("mds_size", float64(sumS))
	rep.set("ratio_lb", float64(sumS)/float64(sumLB))
	rep.set("core.cut_share", share)
	rep.notef("catalogue: %d bodies, Σn=%d, Σ|S|=%d, Σ 2-packing lower bound %d (ratio_lb base), cut share %.3f",
		len(in.hot), sumN, sumS, sumLB, share)
	return nil
}

// sampleRSS resets the peak RSS of process pid, then every interval
// records and resets it until stop closes. With no full interval it
// returns one reading taken at stop.
func sampleRSS(pid string, interval time.Duration, stop <-chan struct{}) ([]float64, error) {
	if err := resetPeakRSS(pid); err != nil {
		return nil, err
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	var out []float64
	for {
		select {
		case <-t.C:
		case <-stop:
			if len(out) > 0 {
				return out, nil
			}
			mb, err := peakRSSMB(pid)
			return []float64{mb}, err
		}
		mb, err := peakRSSMB(pid)
		if err != nil {
			return out, err
		}
		out = append(out, mb)
		if err := resetPeakRSS(pid); err != nil {
			return out, err
		}
	}
}

// hotShots lays out rate×span hot requests evenly spaced from `from`,
// each on a Zipf-drawn catalogue rank.
func hotShots(in *serveInputs, zipf *rand.Zipf, rate float64, from, span time.Duration, step int) []*shot {
	n := int(rate * span.Seconds())
	out := make([]*shot, 0, n)
	for j := 0; j < n; j++ {
		due := from + time.Duration(float64(j)/rate*float64(time.Second))
		out = append(out, &shot{b: in.hot[zipf.Uint64()], due: due, step: step, hot: true})
	}
	return out
}

// coldShots lays out one request per cold body, evenly spaced at coldRate.
func coldShots(in *serveInputs) []*shot {
	out := make([]*shot, 0, len(in.cold))
	for j, b := range in.cold {
		due := time.Duration((float64(j) + 0.5) / coldRate * float64(time.Second))
		out = append(out, &shot{b: b, due: due})
	}
	return out
}

// countStream counts every shot as attempted (failures included, never
// as throughput), records the first failures, and returns the successes.
func countStream(rep *report, name string, shots []*shot) (ok, failed int) {
	for _, sh := range shots {
		rep.op(sh.ok)
		if sh.ok {
			ok++
			continue
		}
		failed++
		if failed <= 3 {
			rep.problemf("%s %s: %s", name, sh.b.name, sh.why)
		}
	}
	return ok, failed
}

// latencies returns each shot's latency (+Inf for a failure) and lateness.
func latencies(shots []*shot) (lat, late []float64) {
	for _, sh := range shots {
		lat, late = append(lat, sh.lat), append(late, sh.late)
	}
	return lat, late
}

// windowFigures sets the figures of the measured window: hit latency at
// the nominal rate, miss latency (solve_s is its median), generator
// lateness, and sent/succeeded/failed per stream. It returns how many hot
// and cold requests succeeded.
func windowFigures(rep *report, hot, cold []*shot) (hotOK, coldOK int) {
	hotOK, hotFailed := countStream(rep, "hot", hot)
	coldOK, coldFailed := countStream(rep, "cold", cold)
	rep.set("loadgen.hot_sent", float64(len(hot)))
	rep.set("loadgen.hot_failed", float64(hotFailed))
	rep.set("loadgen.cold_sent", float64(len(cold)))
	rep.set("loadgen.cold_failed", float64(coldFailed))
	rep.notef("hot: sent %d, succeeded %d, failed %d; cold: sent %d, succeeded %d, failed %d",
		len(hot), hotOK, hotFailed, len(cold), coldOK, coldFailed)

	lat, late := latencies(hot)
	p99, pct := tail(lat)
	lateTail, _ := tail(late)
	blockP99, blocks := blockTail(lat, hitBlock)
	rep.set("hit_p50_ms", 1000*median(lat))
	rep.set("service.hit_p99_ms", 1000*blockP99)
	rep.notef("service.hit_p99_ms is the median over %d blocks of %d consecutive hot requests of each block's p99", blocks, hitBlock)
	rep.set("loadgen.late_p99_ms", 1000*lateTail)
	rep.notef("hit latency at %g/s: %d requests, p50 %.3f ms, p%.1f %.3f ms, generator late p%.1f %.3f ms",
		hotRates[0], len(lat), 1000*median(lat), pct, 1000*p99, pct, 1000*lateTail)
	rep.notef("hit latency ms: p90 %.3f, p95 %.3f, p98 %.3f, p99 %.3f, p99.5 %.3f, max %.3f; generator late ms: p95 %.3f, p99 %.3f",
		1000*quantile(lat, .9), 1000*quantile(lat, .95), 1000*quantile(lat, .98), 1000*quantile(lat, .99),
		1000*quantile(lat, .995), 1000*quantile(lat, 1), 1000*quantile(late, .95), 1000*quantile(late, .99))

	miss, _ := latencies(cold)
	missTail, pct := tail(miss)
	rep.set("solve_s", median(miss))
	rep.set("loadgen.miss_p50_ms", 1000*median(miss))
	rep.set("loadgen.miss_tail_ms", 1000*missTail)
	rep.notef("miss latency at %g/s: %d requests, p50 %.2f ms, p%.1f %.2f ms (solve_s is the miss p50)",
		coldRate, len(miss), 1000*median(miss), pct, 1000*missTail)
	byShape := make([][]float64, len(coldShapes))
	for j, x := range miss {
		byShape[j%len(coldShapes)] = append(byShape[j%len(coldShapes)], x)
	}
	var shapes []string
	for k, sh := range coldShapes {
		shapes = append(shapes, fmt.Sprintf("%s %d: %.1f", sh.kind, sh.n, 1000*median(byShape[k])))
	}
	rep.notef("miss p50 ms per cold shape: %s", strings.Join(shapes, ", "))
	return hotOK, coldOK
}

// ladderFigures sets loadgen.max_ok_rps: the highest hot rate (the
// nominal window, then each ladder step) whose requests all succeeded
// with the tail within hitLimit and no growing generator lag.
func ladderFigures(rep *report, nominal, ladder []*shot) {
	steps := [][]*shot{nominal}
	for _, sh := range ladder {
		for len(steps) <= sh.step {
			steps = append(steps, nil)
		}
		steps[sh.step] = append(steps[sh.step], sh)
	}
	_, failed := countStream(rep, "hot ladder", ladder)
	maxOK := 0.0
	for k, shots := range steps {
		lat, late := latencies(shots)
		bad := 0
		for _, sh := range shots {
			if !sh.ok {
				bad++
			}
		}
		p99, pct := tail(lat)
		// Growing lag: the last tenth of the step was sent later than the limit.
		growing := median(late[len(late)*9/10:]) > hitLimit
		ok := bad == 0 && p99 <= hitLimit && !growing
		if ok {
			maxOK = max(maxOK, hotRates[k])
		}
		rep.notef("hot rate %g/s: %d requests, p50 %.3f ms, p%.1f %.3f ms, failed %d, lag growing %v, within limit %v",
			hotRates[k], len(shots), 1000*median(lat), pct, 1000*p99, bad, growing, ok)
	}
	rep.notef("ladder: %d requests, %d failed", len(ladder), failed)
	rep.set("loadgen.max_ok_rps", maxOK)
}

// metricDeltas reads the daemon's own counters over the window and checks
// them against the generator's counts: every successful cold request is
// one computation, every successful hot request one cache hit.
func metricDeltas(rep *report, before, after map[string]float64, hotOK, coldOK int) {
	delta := func(k string) float64 { return after[k] - before[k] }
	hits, misses := delta("mdsd_cache_hits_total"), delta("mdsd_cache_misses_total")
	comps := delta("mdsd_computations_total")
	sh, sm := delta("mdsd_store_hits_total"), delta("mdsd_store_misses_total")
	rep.set("service.cache_hit_ratio", hits/(hits+misses))
	rep.set("service.computations", comps)
	rep.set("service.queue_wait_mean_ms", 1000*delta("mdsd_queue_wait_seconds_sum")/delta("mdsd_queue_wait_seconds_count"))
	rep.set("service.solve_wall_mean_ms", 1000*delta("mdsd_solve_wall_seconds_sum")/delta("mdsd_solve_wall_seconds_count"))
	rep.set("service.gc_pause_s", delta("mdsd_gc_pause_seconds_total"))
	rep.set("store.hit_ratio", sh/(sh+sm))
	rep.set("store.bytes", delta("mdsd_store_bytes"))
	if int(comps) != coldOK {
		rep.problemf("/metrics: %v computations in the window, the generator saw %d successful cold requests", comps, coldOK)
	}
	if int(hits) != hotOK {
		rep.problemf("/metrics: %v cache hits in the window, the generator saw %d successful hot requests", hits, hotOK)
	}
	rep.notef("/metrics deltas: cache hits %v (memory+disk), misses %v, computations %v, store hits %v, store misses %v",
		hits, misses, comps, sh, sm)
}

// checkCold verifies every cold solution on the benchmark's own graph.
func checkCold(rep *report, cold []*shot) {
	for _, sh := range cold {
		if sh.ok && !mds.IsDominatingSet(sh.b.g, sh.s) {
			rep.problemf("cold %s: S does not dominate", sh.b.name)
		}
	}
}

// checkOffline re-solves a sample of bodies in-process with
// core.Alg1Pipeline and compares |S| with what the daemon returned.
func checkOffline(rep *report, in *serveInputs, cold []*shot) error {
	checked := 0
	for i := 0; i < len(in.hot); i += 6 {
		b := in.hot[i]
		res, err := core.Alg1Pipeline(b.g, params(), core.PipelineOptions{Workers: 1})
		if err != nil {
			return err
		}
		if len(res.S) != b.wantS {
			rep.problemf("offline check %s: |S|=%d, mdsd returned %d", b.name, len(res.S), b.wantS)
		}
		checked++
	}
	for _, sh := range cold[:min(4, len(cold))] {
		if !sh.ok {
			continue
		}
		res, err := core.Alg1Pipeline(sh.b.g, params(), core.PipelineOptions{Workers: 1})
		if err != nil {
			return err
		}
		if len(res.S) != len(sh.s) {
			rep.problemf("offline check %s: |S|=%d, mdsd returned %d", sh.b.name, len(res.S), len(sh.s))
		}
		checked++
	}
	rep.notef("offline Alg1Pipeline |S| check on %d sampled bodies", checked)
	return nil
}

// serveTraced adds the per-layer figures the daemon cannot report from
// outside: the hit-path layers replayed on the head of the catalogue,
// traced in-process solves of the first cold bodies (the same pipeline
// mdsd runs on a miss, one worker), and store Put/Get timings.
func serveTraced(o *options, rep *report, in *serveInputs, dir string) error {
	tr, root := newBenchTrace(o)
	var hits []*hitBody
	for _, b := range in.hot[:cacheEntries] {
		fp := b.g.Freeze().Fingerprint()
		hits = append(hits, &hitBody{req: b.req, fp: fp, outcome: b.outcome})
	}
	if err := hitLayers(rep, hits, 5, root); err != nil {
		return err
	}

	var untraced, traced, accounted float64
	stage := map[string]float64{}
	var ls []solveLayers
	var cs componentStats
	sample := in.cold[:min(4, len(in.cold))]
	for i, b := range sample {
		solve := func(parent *obs.Span) (*core.Alg1Result, float64, float64, *benchHooks, error) {
			var req service.SolveRequest
			if err := json.Unmarshal(b.req, &req); err != nil {
				return nil, 0, 0, nil, err
			}
			var g *graph.Graph
			var err error
			parse := timedSpan(parent, "graphio.ReadLimited", func() {
				g, err = graphio.ReadLimited(strings.NewReader(req.Data), graphio.FormatEdgeList, maxRequestVertices, maxRequestEdges)
			})
			if err != nil {
				return nil, 0, 0, nil, err
			}
			opt := core.PipelineOptions{Workers: 1}
			var h *benchHooks
			var sp *obs.Span
			if parent != nil {
				sp = parent.StartChild("core.Alg1Pipeline")
				h = newHooks(sp)
				opt.Hooks = h
			}
			res, err := core.Alg1Pipeline(g, params(), opt)
			if sp != nil {
				sp.End()
			}
			if err != nil {
				return nil, 0, 0, nil, err
			}
			ok := false
			verify := timedSpan(parent, "mds.IsDominatingSet", func() { ok = mds.IsDominatingSet(b.g, res.S) })
			if !ok {
				return nil, 0, 0, nil, fmt.Errorf("%s: S does not dominate", b.name)
			}
			return res, parse, verify, h, nil
		}
		var err error
		untraced += timeIt(func() { _, _, _, _, err = solve(nil) })
		rep.op(err == nil)
		if err != nil {
			return err
		}
		sp := root.StartChild("solve " + b.name)
		var res *core.Alg1Result
		var parse, verify float64
		var h *benchHooks
		traced += timeIt(func() { res, parse, verify, h, err = solve(sp) })
		sp.End()
		rep.op(err == nil)
		if err != nil {
			return err
		}
		accounted += parse + verify
		for _, st := range pipelineStages {
			w := h.stageWall(st.stage).Seconds()
			stage[st.metric] += w / float64(len(sample))
			accounted += w
		}
		cs.add(h.components(1, core.DefaultMaxBruteComponent))
		csrbin := filepath.Join(dir, fmt.Sprintf("cold-%d.csrbin", i))
		if err := graphio.WriteCSRBinFile(csrbin, b.g.Freeze()); err != nil {
			return err
		}
		lsp := root.StartChild("layers " + b.name)
		l, err := measureSolveLayers(b.g, csrbin, res, params(), lsp)
		lsp.End()
		if err != nil {
			return fmt.Errorf("layer calls on %s: %w", b.name, err)
		}
		ls = append(ls, l)
	}
	for _, st := range pipelineStages {
		rep.set(st.metric, stage[st.metric])
	}
	rep.set("trace_overhead_frac", traced/untraced-1)
	rep.set("trace.accounted_frac", accounted/untraced)
	rep.notef("cold sample of %d bodies: untraced %.4f s, traced %.4f s, stages + parse + verify %.4f s", len(sample), untraced, traced, accounted)
	cs.set(rep, len(sample), core.DefaultMaxBruteComponent)
	setSolveLayers(rep, ls)

	var payloads [][]byte
	for _, b := range in.hot[:8] {
		p, err := json.Marshal(b.outcome)
		if err != nil {
			return err
		}
		payloads = append(payloads, p)
	}
	if err := storeLayers(rep, filepath.Join(dir, "store-layer"), in.hot[0].g.Freeze().Fingerprint(), payloads, root); err != nil {
		return err
	}
	file, err := writeTrace(o, tr, root)
	if err != nil {
		return err
	}
	rep.notef("trace written to %s", file)
	return nil
}
