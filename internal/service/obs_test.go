package service

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"localmds/internal/obs"
)

func TestSolveResponseMarksCacheHits(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 1})
	req := SolveRequest{Generator: &GeneratorSpec{Kind: "grid", N: 25, Seed: 1}}

	var first, second JobView
	if code := postJSON(t, ts.URL+"/v1/solve", &req, &first); code != http.StatusOK {
		t.Fatalf("first solve status %d", code)
	}
	if first.Cached {
		t.Error("first solve reported cached")
	}
	if first.CacheAgeS != nil {
		t.Errorf("first solve carries cache_age_s %v", *first.CacheAgeS)
	}
	if code := postJSON(t, ts.URL+"/v1/solve", &req, &second); code != http.StatusOK {
		t.Fatalf("second solve status %d", code)
	}
	if !second.Cached {
		t.Error("second solve not reported cached")
	}
	if second.CacheAgeS == nil {
		t.Fatal("cached solve missing cache_age_s")
	}
	if *second.CacheAgeS < 0 {
		t.Errorf("cache_age_s = %v, want >= 0", *second.CacheAgeS)
	}
	if second.SolveOutcome == nil || second.SolveOutcome.Fingerprint != first.SolveOutcome.Fingerprint {
		t.Error("cached solve did not serve the stored outcome")
	}
}

func TestJobTraceEndpoint(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 1})
	req := SolveRequest{Generator: &GeneratorSpec{Kind: "ding", N: 60, T: 5, Seed: 7}}

	var computed, cached JobView
	postJSON(t, ts.URL+"/v1/solve", &req, &computed)
	postJSON(t, ts.URL+"/v1/solve", &req, &cached)

	var view obs.TraceView
	if code := getJSON(t, ts.URL+"/v1/jobs/"+computed.ID+"/trace", &view); code != http.StatusOK {
		t.Fatalf("trace status %d", code)
	}
	if view.TraceID != computed.ID {
		t.Errorf("trace_id = %q, want the job ID %q", view.TraceID, computed.ID)
	}
	if view.Root == nil || view.Root.Name != "job" {
		t.Fatalf("root span = %+v, want name \"job\"", view.Root)
	}
	names := make(map[string]*obs.SpanView)
	for i := range view.Root.Children {
		names[view.Root.Children[i].Name] = &view.Root.Children[i]
	}
	if names["queue wait"] == nil || names["solve"] == nil {
		t.Fatalf("root children = %v, want queue wait + solve", names)
	}
	var stages []string
	for _, c := range names["solve"].Children {
		stages = append(stages, c.Name)
	}
	want := []string{"TwinReduce", "Cuts", "Partition", "ComponentSolve", "Stitch"}
	if len(stages) != len(want) {
		t.Fatalf("stage spans = %v, want %v", stages, want)
	}
	for i := range want {
		if stages[i] != want[i] {
			t.Fatalf("stage spans = %v, want %v", stages, want)
		}
	}
	if view.Root.Open {
		t.Error("root span never ended")
	}

	// Chrome trace-event export.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + computed.ID + "/trace?format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var chrome struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&chrome); err != nil {
		t.Fatal(err)
	}
	if len(chrome.TraceEvents) < len(want)+2 {
		t.Fatalf("chrome events = %d, want at least %d", len(chrome.TraceEvents), len(want)+2)
	}
	for _, ev := range chrome.TraceEvents {
		if ev.Ph != "X" {
			t.Fatalf("event %q has phase %q, want X", ev.Name, ev.Ph)
		}
	}

	// Cache hits never computed: no trace.
	if code := getJSON(t, ts.URL+"/v1/jobs/"+cached.ID+"/trace", nil); code != http.StatusNotFound {
		t.Errorf("cached job trace status = %d, want 404", code)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/nope/trace", nil); code != http.StatusNotFound {
		t.Errorf("unknown job trace status = %d, want 404", code)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/"+computed.ID+"/trace?format=svg", nil); code != http.StatusBadRequest {
		t.Errorf("bad format status = %d, want 400", code)
	}
}

// sseFrame is one parsed SSE frame from /v1/events.
type sseFrame struct {
	id    string
	event string
	data  string
}

// readFrames reads SSE frames until n arrive or the stream ends.
func readFrames(t *testing.T, r io.Reader, n int) []sseFrame {
	t.Helper()
	var frames []sseFrame
	var cur sseFrame
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.event != "" || cur.data != "" {
				frames = append(frames, cur)
				cur = sseFrame{}
			}
			if len(frames) >= n {
				return frames
			}
		case strings.HasPrefix(line, "id: "):
			cur.id = line[len("id: "):]
		case strings.HasPrefix(line, "event: "):
			cur.event = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			cur.data = line[len("data: "):]
		}
	}
	return frames
}

// waitForEvent reads sub until an event of type typ arrives. runJob
// publishes a job's done event after the job finishes, so a client can
// see the response before the event is out.
func waitForEvent(t *testing.T, sub *obs.Subscription, typ string) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case e, ok := <-sub.C:
			if !ok {
				t.Fatalf("event stream closed without a %s event", typ)
			}
			if e.Type == typ {
				return
			}
		case <-deadline:
			t.Fatalf("no %s event within 5s", typ)
		}
	}
}

func TestEventsStreamReplayAndLifecycle(t *testing.T) {
	s, ts := startServer(t, Config{Workers: 1})
	sub := s.bus.Subscribe(0, 16)
	defer sub.Cancel()
	req := SolveRequest{Generator: &GeneratorSpec{Kind: "grid", N: 25, Seed: 1}}
	postJSON(t, ts.URL+"/v1/solve", &req, nil) // compute
	// The cache hit must publish after the first job's done event.
	waitForEvent(t, sub, obs.EventDone)
	postJSON(t, ts.URL+"/v1/solve", &req, nil) // cache hit

	// Late subscriber: ring replay delivers the full history.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	hreq, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/events", nil)
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content-type = %q", ct)
	}
	frames := readFrames(t, resp.Body, 4)
	if len(frames) != 4 {
		t.Fatalf("replayed frames = %d, want 4", len(frames))
	}
	wantTypes := []string{obs.EventSubmitted, obs.EventStarted, obs.EventDone, obs.EventCached}
	var lastSeq uint64
	for i, f := range frames {
		if f.event != wantTypes[i] {
			t.Errorf("frame %d = %q, want %q", i, f.event, wantTypes[i])
		}
		var ev obs.Event
		if err := json.Unmarshal([]byte(f.data), &ev); err != nil {
			t.Fatalf("frame %d data %q: %v", i, f.data, err)
		}
		if ev.Seq <= lastSeq {
			t.Errorf("frame %d seq %d not increasing past %d", i, ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		if ev.JobID == "" {
			t.Errorf("frame %d missing job_id", i)
		}
		if f.event == obs.EventCached && ev.CacheAgeS < 0 {
			t.Errorf("cached event cache_age_s = %v", ev.CacheAgeS)
		}
		if f.event == obs.EventDone && ev.SolveWallS <= 0 {
			t.Errorf("done event solve_wall_s = %v", ev.SolveWallS)
		}
	}

	// Resume semantics: ?after=lastSeq-1 replays only the final event.
	resumeCtx, resumeCancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer resumeCancel()
	hreq2, _ := http.NewRequestWithContext(resumeCtx, "GET",
		ts.URL+"/v1/events?after="+frames[2].id, nil)
	resp2, err := http.DefaultClient.Do(hreq2)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	resumed := readFrames(t, resp2.Body, 1)
	if len(resumed) != 1 || resumed[0].event != obs.EventCached {
		t.Fatalf("resume replay = %+v, want the cached event only", resumed)
	}

	// Drain closes every stream with a final end frame.
	drainCtx, drainCancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer drainCancel()
	hreq3, _ := http.NewRequestWithContext(drainCtx, "GET", ts.URL+"/v1/events?after="+frames[3].id, nil)
	resp3, err := http.DefaultClient.Do(hreq3)
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	go s.Drain()
	end := readFrames(t, resp3.Body, 1)
	if len(end) != 1 || end[0].event != "end" {
		t.Fatalf("drain frame = %+v, want event \"end\"", end)
	}

	if code := getJSON(t, ts.URL+"/v1/events?after=banana", nil); code != http.StatusBadRequest {
		t.Errorf("bad after status = %d, want 400", code)
	}
}

func TestMetricsObservabilityFamilies(t *testing.T) {
	s, ts := startServer(t, Config{Workers: 1, Version: "test-build"})
	// Scrape only once the first job's done event is out.
	sub := s.bus.Subscribe(0, 16)
	defer sub.Cancel()
	req := SolveRequest{Generator: &GeneratorSpec{Kind: "grid", N: 25, Seed: 1}}
	postJSON(t, ts.URL+"/v1/solve", &req, nil)
	postJSON(t, ts.URL+"/v1/solve", &req, nil)
	waitForEvent(t, sub, obs.EventDone)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("content-type = %q", ct)
	}
	data, _ := io.ReadAll(resp.Body)
	text := string(data)
	for _, w := range []string{
		`mdsd_build_info{version="test-build",go="go`,
		"mdsd_goroutines ",
		"mdsd_heap_bytes ",
		"mdsd_gc_pause_seconds_total ",
		"mdsd_workers 1\n",
		"mdsd_worker_utilization ",
		"mdsd_events_total 4",
		`mdsd_request_duration_seconds_bucket{route="/v1/solve",outcome="2xx",le="+Inf"} 2`,
		"mdsd_queue_wait_seconds_count 1",
		"mdsd_solve_wall_seconds_count 1",
		`mdsd_stage_duration_seconds_bucket{stage="Stitch",le="+Inf"} 1`,
	} {
		if !strings.Contains(text, w) {
			t.Fatalf("metrics missing %q:\n%s", w, text)
		}
	}
	// Canonical family ordering: every _bucket line of a histogram comes
	// before its _sum, which comes before its _count.
	for _, fam := range []string{"mdsd_queue_wait_seconds", "mdsd_solve_wall_seconds"} {
		lastBucket := strings.LastIndex(text, fam+"_bucket")
		sum := strings.Index(text, fam+"_sum")
		count := strings.Index(text, fam+"_count")
		if !(lastBucket < sum && sum < count) {
			t.Errorf("%s series out of canonical order (bucket %d, sum %d, count %d)",
				fam, lastBucket, sum, count)
		}
	}
}

func TestRouteAndOutcomeLabels(t *testing.T) {
	for path, want := range map[string]string{
		"/v1/solve":           "/v1/solve",
		"/v1/events":          "/v1/events",
		"/v1/jobs/job-000001": "/v1/jobs/{id}",
		"/v1/jobs/x/trace":    "/v1/jobs/{id}/trace",
		"/metrics":            "/metrics",
		"/debug/whatever":     "other",
		"/v1/jobs/../../etc":  "/v1/jobs/{id}",
	} {
		if got := routeLabel(path); got != want {
			t.Errorf("routeLabel(%q) = %q, want %q", path, got, want)
		}
	}
	for status, want := range map[int]string{200: "2xx", 404: "4xx", 503: "5xx", 42: "other"} {
		if got := outcomeLabel(status); got != want {
			t.Errorf("outcomeLabel(%d) = %q, want %q", status, got, want)
		}
	}
}
