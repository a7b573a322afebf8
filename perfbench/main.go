// Command perfbench is the benchmark of the Algorithm 1 stack: it builds a
// seeded workload, measures it for a fixed window, checks every output,
// and prints every metric by name with its unit. The last stdout line is
// one JSON object: the end-to-end metrics with -trace 0, the per-layer
// metrics (from a separate traced run) with -trace 1. README.md explains
// the workloads and the layer -> metric -> end-to-end map.
//
// Run it through run.sh, which builds mdsd and this program first.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// options are the command-line inputs of one run.
type options struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	checkout string // repository root: sources, and .bench_build for outputs
}

// buildDir is where run.sh puts binaries; the benchmark writes its scratch
// inputs, traces and result files under it too.
func (o *options) buildDir() string { return filepath.Join(o.checkout, ".bench_build") }

// workloads maps a workload name to its runner.
var workloads = map[string]func(*options, *report) error{
	"solve_ding":  runSolveDing,
	"solve_grids": runSolveGrids,
	"serve_mix":   runServeMix,
}

func main() {
	o := &options{}
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.StringVar(&o.workload, "workload", "", "workload: solve_ding, solve_grids or serve_mix")
	fl.Int64Var(&o.seed, "seed", 1, "seed every input is generated from")
	seconds := fl.Int("seconds", 30, "length of the measured window in seconds")
	traceFlag := fl.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	fl.StringVar(&o.checkout, "checkout", ".", "repository root the binaries were built from")
	if err := fl.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	run, ok := workloads[o.workload]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload solve_ding|solve_grids|serve_mix, -seconds >= 1 and -trace 0|1\n")
		os.Exit(2)
	}
	o.window = time.Duration(*seconds) * time.Second
	o.trace = *traceFlag == 1
	abs, err := filepath.Abs(o.checkout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	o.checkout = abs

	rep := newReport()
	rep.meta = hostMeta(o)
	steal0, total0 := cpuTicks()
	err = run(o, rep)
	rep.meta["host_steal_frac"] = stealShare(steal0, total0)
	if err != nil {
		// Set-up or harness failure: no result line.
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(2)
	}
	correct, err := rep.emit(o, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	if !correct {
		os.Exit(1)
	}
}

// metricDef names one reported metric and its unit. The tables below are
// the source of BENCHMARK.json's end_to_end and per_layer lists.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"solve_s", "s"},
	{"peak_rss_mb", "MB"},
	{"mds_size", "count"},
	{"ratio_lb", "ratio"},
	{"hit_p50_ms", "ms"},
}

var perLayer = []metricDef{
	{"graphio.parse_s", "s"},
	{"graph.freeze_s", "s"},
	{"graph.fingerprint_s", "s"},
	{"service.decode_s", "s"},
	{"service.encode_s", "s"},
	{"service.hit_p99_ms", "ms"},
	{"graphio.open_s", "s"},
	{"graph.twinreduce_csr_s", "s"},
	{"graph.twinreduce_adj_s", "s"},
	{"cuts.onecut_s", "s"},
	{"cuts.onecut_vertices", "count"},
	{"cuts.interesting_s", "s"},
	{"cuts.interesting_vertices", "count"},
	{"core.twinreduce_s", "s"},
	{"core.cuts_s", "s"},
	{"core.partition_s", "s"},
	{"core.componentsolve_s", "s"},
	{"core.stitch_s", "s"},
	{"core.components", "count"},
	{"core.component_max_vertices", "count"},
	{"core.component_max_s", "s"},
	{"core.fanout_busy_frac", "frac"},
	{"core.exact_useful_ratio", "frac"},
	{"core.cut_share", "frac"},
	{"graph.diameter_s", "s"},
	{"mds.verify_s", "s"},
	{"service.cache_hit_ratio", "frac"},
	{"service.computations", "count"},
	{"service.queue_wait_mean_ms", "ms"},
	{"service.solve_wall_mean_ms", "ms"},
	{"service.gc_pause_s", "s"},
	{"store.hit_ratio", "frac"},
	{"store.bytes", "B"},
	{"store.put_s", "s"},
	{"store.get_s", "s"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.max_ok_rps", "1/s"},
	{"loadgen.miss_p50_ms", "ms"},
	{"loadgen.miss_tail_ms", "ms"},
	{"loadgen.hot_sent", "count"},
	{"loadgen.hot_failed", "count"},
	{"loadgen.cold_sent", "count"},
	{"loadgen.cold_failed", "count"},
	{"trace_overhead_frac", "frac"},
	{"trace.accounted_frac", "frac"},
}

// report collects one run's figures, notes and correctness verdicts.
type report struct {
	values    map[string]float64
	notes     []string // human-readable lines, printed before the JSON
	problems  []string // failed correctness checks
	attempted int64
	failed    int64
	meta      map[string]string
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// problemf records a failed correctness check; any problem makes the run
// incorrect and the command exit non-zero.
func (r *report) problemf(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// op counts one attempted operation and whether it failed.
func (r *report) op(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// emit prints the human report and the JSON result line, and writes the
// full record (metadata, every figure, notes) under .bench_build/results.
func (r *report) emit(o *options, w io.Writer) (bool, error) {
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	line := resultLine{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricOut{}}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			return false, fmt.Errorf("metric %s was not measured", d.name)
		}
		line.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	for k, v := range r.values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// A failed operation or an empty sample; JSON has no NaN.
			r.problemf("%s is %v", k, v)
			r.values[k] = 0
			if m, ok := line.Metrics[k]; ok {
				line.Metrics[k] = metricOut{Value: 0, Unit: m.Unit}
			}
		}
	}
	if line.Attempted < 1 {
		r.problemf("no operation was attempted")
	}
	line.Correct = len(r.problems) == 0 && r.failed == 0

	keys := make([]string, 0, len(r.meta))
	for k := range r.meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "# %s: %s\n", k, r.meta[k])
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for _, d := range defs {
		fmt.Fprintf(w, "%-30s %14.6g %s\n", d.name, line.Metrics[d.name].Value, d.unit)
	}
	var rest []string
	for k := range r.values {
		if _, ok := line.Metrics[k]; !ok {
			rest = append(rest, k)
		}
	}
	sort.Strings(rest)
	for _, k := range rest {
		fmt.Fprintf(w, "  %-28s %14.6g %s (also measured)\n", k, r.values[k], unitOf(k))
	}
	fmt.Fprintf(w, "attempted %d, failed %d (fail_frac %.4g)\n", r.attempted, r.failed, float64(r.failed)/float64(max(r.attempted, 1)))
	for _, p := range r.problems {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", p)
	}

	record := map[string]any{
		"workload": o.workload, "seed": o.seed, "trace": o.trace, "window_s": o.window.Seconds(),
		"meta": r.meta, "values": r.values, "notes": r.notes, "problems": r.problems, "result": line,
	}
	dir := filepath.Join(o.buildDir(), "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return false, err
	}
	buf, err := json.MarshalIndent(record, "", "  ")
	if err != nil {
		return false, err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", o.workload, o.seed, boolInt(o.trace))
	if err := os.WriteFile(filepath.Join(dir, name), buf, 0o644); err != nil {
		return false, err
	}

	out, err := json.Marshal(line)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%s\n", out)
	return line.Correct, nil
}

// unitOf finds a metric's unit in either table.
func unitOf(name string) string {
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// hostMeta records what a figure depends on besides the code: host, Go
// runtime, seed, and which sources were measured.
func hostMeta(o *options) map[string]string {
	m := map[string]string{
		"workload":   o.workload,
		"seed":       fmt.Sprint(o.seed),
		"cpu":        cpuModel(),
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"commit":     gitCommit(o.checkout),
		"source_sha": sourceDigest(o.checkout),
	}
	return m
}

// cpuTicks reads the host's steal ticks and all CPU ticks so far from the
// first line of /proc/stat (0, 0 when it cannot).
func cpuTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, x := range f[1:] {
		v, err := strconv.ParseUint(x, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i == 7 {
			steal = v
		}
		// guest and guest_nice (fields 9 and 10) are already in user.
		if i < 8 {
			total += v
		}
	}
	return steal, total
}

// stealShare is the share of CPU time the hypervisor gave to other guests
// since cpuTicks returned steal0, total0. Steal inflates every wall-time
// figure, so it goes into each run's metadata.
func stealShare(steal0, total0 uint64) string {
	steal, total := cpuTicks()
	if total <= total0 {
		return "unknown"
	}
	return fmt.Sprintf("%.3f", float64(steal-steal0)/float64(total-total0))
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit names the measured commit when the checkout is a git work
// tree; benchmark checkouts usually are not, and sourceDigest identifies
// the code then.
func gitCommit(dir string) string {
	if _, err := os.Stat(filepath.Join(dir, ".git")); err != nil {
		// Without this check git would report an enclosing repository.
		return "unknown (not a git checkout)"
	}
	cmd := exec.Command("git", "-C", dir, "rev-parse", "HEAD")
	out, err := cmd.Output()
	if err != nil {
		return "unknown (not a git checkout)"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the Go sources and go.mod files of the checkout
// (vendor and .bench_build excluded), so two records can be matched to
// the same code without git.
func sourceDigest(dir string) string {
	h := sha256.New()
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		if d.IsDir() {
			if rel == "vendor" || rel == ".bench_build" || rel == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") && filepath.Base(rel) != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// peakRSSMB reads a process's peak resident set (VmHWM) in MiB.
func peakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	for _, l := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%g kB", &kb); err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line")
}

// resetPeakRSS restarts a process's VmHWM from its current RSS (Linux
// clear_refs), so the next peakRSSMB covers only what ran in between.
func resetPeakRSS(pid string) error {
	return os.WriteFile(filepath.Join("/proc", pid, "clear_refs"), []byte("5"), 0)
}

// workDir returns a fresh scratch directory for one run's inputs.
func workDir(o *options) (string, error) {
	dir := filepath.Join(o.buildDir(), "work", fmt.Sprintf("%s-seed%d-trace%d", o.workload, o.seed, boolInt(o.trace)))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
