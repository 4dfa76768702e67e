package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// scrape fetches /metrics and returns the exposition text.
func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content type = %q, want text/plain", ct)
	}
	return string(readAll(t, resp))
}

// metricValue extracts one sample's value from exposition text, summing
// across label sets when the series name matches more than one line.
func metricValue(t *testing.T, text, name string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + `(?:\{[^}]*\})? ([0-9eE+.-]+|\+Inf|NaN)$`)
	matches := re.FindAllStringSubmatch(text, -1)
	if len(matches) == 0 {
		t.Fatalf("metric %s not found in exposition", name)
	}
	var sum float64
	for _, m := range matches {
		v, err := strconv.ParseFloat(m[1], 64)
		if err != nil {
			t.Fatalf("metric %s value %q: %v", name, m[1], err)
		}
		sum += v
	}
	return sum
}

// TestMetricsEndpointCoversAllFamilies is the tentpole's acceptance
// check: after one miss and one hit, GET /metrics serves Prometheus text
// whose http, cache, scheduler, and sim families all reflect the
// traffic.
func TestMetricsEndpointCoversAllFamilies(t *testing.T) {
	_, ts := newTestService(t)
	seed := uint64(11)
	req := EstimateRequest{Trials: 120, HorizonYears: 50, Seed: &seed}
	readAll(t, postJSON(t, ts.URL+"/estimate", req)) // miss
	readAll(t, postJSON(t, ts.URL+"/estimate", req)) // hit

	text := scrape(t, ts.URL)

	if hits := metricValue(t, text, "ltsimd_cache_hits_total"); hits != 1 {
		t.Errorf("cache hits = %v, want 1", hits)
	}
	if misses := metricValue(t, text, "ltsimd_cache_misses_total"); misses != 1 {
		t.Errorf("cache misses = %v, want 1", misses)
	}
	if entries := metricValue(t, text, "ltsimd_cache_entries"); entries != 1 {
		t.Errorf("cache entries = %v, want 1", entries)
	}
	if completed := metricValue(t, text, "ltsimd_sched_jobs_completed_total"); completed != 1 {
		t.Errorf("scheduler completed = %v, want 1 (summed across shards)", completed)
	}
	if trials := metricValue(t, text, "sim_trials_total"); trials < 120 {
		t.Errorf("sim trials = %v, want >= 120", trials)
	}
	if runs := metricValue(t, text, "sim_runs_total"); runs < 1 {
		t.Errorf("sim runs = %v, want >= 1", runs)
	}
	if up := metricValue(t, text, "ltsimd_uptime_seconds"); up <= 0 {
		t.Errorf("uptime = %v, want > 0", up)
	}
	// The HTTP histogram recorded both estimate requests, split by cache
	// outcome.
	for _, cacheLabel := range []string{"miss", "hit"} {
		want := `ltsimd_http_request_seconds_count{route="/estimate",status="200",cache="` + cacheLabel + `"} 1`
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Queue-wait and run-duration histograms saw the one scheduled job.
	if waits := metricValue(t, text, "ltsimd_sched_queue_wait_seconds_count"); waits != 1 {
		t.Errorf("queue wait observations = %v, want 1", waits)
	}
	if runs := metricValue(t, text, "ltsimd_sched_run_seconds_count"); runs != 1 {
		t.Errorf("run duration observations = %v, want 1", runs)
	}
}

// TestMiddlewareHistogramBuckets checks the middleware records exactly
// one observation per request into the right child and that the
// observation is consistent with its bucket placement.
func TestMiddlewareHistogramBuckets(t *testing.T) {
	svc, ts := newTestService(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp)

	h := svc.metrics.httpSeconds.With("/healthz", "200", "none")
	buckets, sum, count := h.Snapshot()
	if count != 1 {
		t.Fatalf("healthz child count = %d, want 1", count)
	}
	if sum < 0 {
		t.Errorf("sum = %v, want >= 0", sum)
	}
	var total uint64
	for _, b := range buckets {
		total += b
	}
	if total != 1 {
		t.Errorf("bucket counts sum to %d, want 1 (one observation in exactly one bucket)", total)
	}
	// A healthz round trip is far under the top bucket bound, so the
	// overflow bucket must be empty.
	if buckets[len(buckets)-1] != 0 {
		t.Errorf("healthz latency landed in the overflow bucket (sum=%v)", sum)
	}

	// Unknown paths fold onto the bounded "other" route label.
	r404, err := http.Get(ts.URL + "/definitely/not/a/route")
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, r404)
	_, _, otherCount := svc.metrics.httpSeconds.With("other", "404", "none").Snapshot()
	if otherCount != 1 {
		t.Errorf("other-route child count = %d, want 1", otherCount)
	}
}

// TestStatsSnapshotBackwardCompatible is the satellite regression test:
// the PR adds fields to /stats but every pre-existing field keeps its
// name, and the new fields are additive.
func TestStatsSnapshotBackwardCompatible(t *testing.T) {
	_, ts := newTestService(t)
	req := EstimateRequest{Trials: 80, HorizonYears: 50}
	readAll(t, postJSON(t, ts.URL+"/estimate", req))
	readAll(t, postJSON(t, ts.URL+"/estimate", req))

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)

	var top map[string]json.RawMessage
	if err := json.Unmarshal(body, &top); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		// Pre-existing surface.
		"uptime_seconds", "cache", "scheduler",
		// PR 7 additive fields.
		"progress_inflight", "sweep_deduped",
		// PR 8 additive field.
		"biased_runs",
	} {
		if _, ok := top[key]; !ok {
			t.Errorf("/stats missing %q: %s", key, body)
		}
	}
	var cache map[string]json.RawMessage
	if err := json.Unmarshal(top["cache"], &cache); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"size", "capacity", "hits", "misses", "hit_rate", "evictions"} {
		if _, ok := cache[key]; !ok {
			t.Errorf("/stats cache missing %q: %s", key, top["cache"])
		}
	}
	var sched map[string]json.RawMessage
	if err := json.Unmarshal(top["scheduler"], &sched); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"shards", "queue_depth", "inflight", "completed", "failed", "timeouts"} {
		if _, ok := sched[key]; !ok {
			t.Errorf("/stats scheduler missing %q: %s", key, top["scheduler"])
		}
	}
	// The old decode path still works and the counters are sane.
	var snap StatsSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Cache.Hits != 1 || snap.Cache.Misses != 1 {
		t.Errorf("cache stats = %+v, want 1 hit and 1 miss", snap.Cache)
	}
}

// logLine is one NDJSON record from the request log.
type logLine struct {
	Msg     string `json:"msg"`
	Route   string `json:"route"`
	Status  int    `json:"status"`
	Cache   string `json:"cache"`
	Request string `json:"request"`
	Spans   []struct {
		Name string  `json:"name"`
		AtMS float64 `json:"at_ms"`
	} `json:"spans"`
}

// TestRequestSpanOrdering is the satellite span test: a cache-miss
// estimate's structured log record carries the full span timeline with
// queued <= running <= served, and the logged request ID matches the
// X-Ltsimd-Request header.
func TestRequestSpanOrdering(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(lockedWriter{&mu, &buf}, nil))
	svc := New(Config{CacheSize: 64, Shards: 2, QueueDepth: 16, JobTimeout: time.Minute, SimParallel: 1, Logger: logger})
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Shutdown(context.Background())
	})

	seed := uint64(5)
	resp := postJSON(t, ts.URL+"/estimate", EstimateRequest{Trials: 100, HorizonYears: 50, Seed: &seed})
	readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("estimate: %s", resp.Status)
	}
	reqID := resp.Header.Get("X-Ltsimd-Request")
	if len(reqID) != 16 {
		t.Fatalf("X-Ltsimd-Request = %q, want 16 hex chars", reqID)
	}

	mu.Lock()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	mu.Unlock()
	var rec logLine
	found := false
	for _, line := range lines {
		var l logLine
		if err := json.Unmarshal([]byte(line), &l); err != nil {
			t.Fatalf("log line %q is not JSON: %v", line, err)
		}
		if l.Msg == "request" && l.Request == reqID {
			rec, found = l, true
		}
	}
	if !found {
		t.Fatalf("no request log record for id %s in:\n%s", reqID, buf.String())
	}
	if rec.Route != "/estimate" || rec.Status != 200 || rec.Cache != "miss" {
		t.Errorf("record = %+v, want route=/estimate status=200 cache=miss", rec)
	}

	at := map[string]float64{}
	last := -1.0
	for _, s := range rec.Spans {
		if s.AtMS < last {
			t.Errorf("span %s at %vms precedes previous mark at %vms — timeline out of order", s.Name, s.AtMS, last)
		}
		last = s.AtMS
		at[s.Name] = s.AtMS
	}
	for _, name := range []string{"received", "resolved", "queued", "running", "encoded", "served"} {
		if _, ok := at[name]; !ok {
			t.Errorf("span timeline missing %q: %+v", name, rec.Spans)
		}
	}
	if !(at["queued"] <= at["running"] && at["running"] <= at["served"]) {
		t.Errorf("span ordering violated: queued=%v running=%v served=%v", at["queued"], at["running"], at["served"])
	}
}

// lockedWriter serializes writes so the handler goroutine and the test
// reader never race on the buffer.
type lockedWriter struct {
	mu *sync.Mutex
	w  *bytes.Buffer
}

func (l lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// TestSubmitReportsJoined pins the scheduler's dedup signal: a duplicate
// key enqueued while the first is still running coalesces (joined=true)
// and both callers get the same bytes.
func TestSubmitReportsJoined(t *testing.T) {
	s := newScheduler(1, 8, time.Minute)
	t.Cleanup(func() { s.Shutdown(context.Background()) })

	started := make(chan struct{})
	release := make(chan struct{})
	fn := func(context.Context) ([]byte, error) {
		close(started)
		<-release
		return []byte("payload"), nil
	}

	type res struct {
		val    []byte
		joined bool
		err    error
	}
	submit := func(fn func(context.Context) ([]byte, error)) res {
		j, joined, err := s.enqueue(context.Background(), "k", fn)
		if err != nil {
			return res{nil, joined, err}
		}
		v, err := j.Wait(context.Background())
		return res{v, joined, err}
	}
	owner := make(chan res, 1)
	go func() { owner <- submit(fn) }()
	<-started // the owner's job is running, so the key is in the pending table

	dup := make(chan res, 1)
	go func() {
		dup <- submit(func(context.Context) ([]byte, error) {
			t.Error("duplicate submission ran its own compute")
			return nil, nil
		})
	}()
	// The duplicate must be visibly joined before the owner finishes;
	// give its goroutine a moment to take the shard lock.
	time.Sleep(10 * time.Millisecond)
	close(release)

	o, d := <-owner, <-dup
	if o.err != nil || d.err != nil {
		t.Fatalf("submit errors: owner=%v dup=%v", o.err, d.err)
	}
	if o.joined {
		t.Error("owner submission reported joined=true")
	}
	if !d.joined {
		t.Error("duplicate submission reported joined=false, want true (dedup)")
	}
	if string(o.val) != "payload" || string(d.val) != "payload" {
		t.Errorf("values = %q / %q, want both %q", o.val, d.val, "payload")
	}
}

// A handler that panics still leaves the in-flight gauge: net/http
// recovers the panic and drops the connection, and the middleware's
// decrement must not be skipped on the way out.
func TestInflightGaugeAfterPanic(t *testing.T) {
	svc := New(Config{Shards: 1, QueueDepth: 1, JobTimeout: time.Minute})
	t.Cleanup(func() { svc.Shutdown(context.Background()) })
	h := svc.withTelemetry(http.HandlerFunc(func(http.ResponseWriter, *http.Request) { panic("handler failed") }))
	func() {
		defer func() {
			if recover() == nil {
				t.Error("the handler's panic did not reach the caller")
			}
		}()
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/estimate", nil))
	}()
	if v := svc.metrics.httpInflight.Value(); v != 0 {
		t.Errorf("ltsimd_http_in_flight = %v after the panic, want 0", v)
	}
}

// spanLog is a slog.Handler that keeps the span names of every request
// record, by request ID.
type spanLog struct {
	mu    sync.Mutex
	spans map[string][]string
}

func (l *spanLog) Enabled(context.Context, slog.Level) bool { return true }
func (l *spanLog) WithAttrs([]slog.Attr) slog.Handler       { return l }
func (l *spanLog) WithGroup(string) slog.Handler            { return l }

func (l *spanLog) Handle(_ context.Context, r slog.Record) error {
	var id string
	var names []string
	r.Attrs(func(a slog.Attr) bool {
		switch a.Key {
		case "request":
			id = a.Value.String()
		case "spans":
			spans, _ := a.Value.Any().([]telemetry.Span)
			for _, s := range spans {
				names = append(names, s.Name)
			}
		}
		return true
	})
	l.mu.Lock()
	l.spans[id] = names
	l.mu.Unlock()
	return nil
}

func (l *spanLog) of(id string) []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.spans[id]
}

// markNames lists a trace's mark names in order.
func markNames(tr *telemetry.Trace) []string {
	var names []string
	for _, m := range tr.Marks() {
		names = append(names, m.Name)
	}
	return names
}

// A miss whose client hangs up leaves its job queued; the job's later
// marks land on that request's trace and on no other, so a warm hit
// served meanwhile logs only its own three spans.
func TestLateMarksLandOnTheirOwnTrace(t *testing.T) {
	log := &spanLog{spans: map[string][]string{}}
	svc := New(Config{CacheSize: 64, Shards: 1, QueueDepth: 8, JobTimeout: time.Minute, SimParallel: 1, Logger: slog.New(log)})
	t.Cleanup(func() { svc.Shutdown(context.Background()) })
	// The spy hands the test each request's trace, which otherwise only
	// the middleware and the scheduler hold.
	traces := make(chan *telemetry.Trace, 4)
	h := svc.withTelemetry(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		traces <- telemetry.TraceFrom(r.Context())
		svc.mux.ServeHTTP(w, r)
	}))
	serve := func(ctx context.Context, body string) (int, *telemetry.Trace) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/estimate", strings.NewReader(body)).WithContext(ctx))
		return rec.Code, <-traces
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(30 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	const hot, cold = `{"trials":100,"horizon_years":50,"seed":31}`, `{"trials":100,"horizon_years":50,"seed":32}`
	if code, _ := serve(context.Background(), hot); code != http.StatusOK {
		t.Fatalf("warm-up: status %d", code)
	}

	// Hold the only shard worker, so the miss's job waits in the queue.
	started, release := make(chan struct{}), make(chan struct{})
	if _, _, err := svc.sched.enqueue(context.Background(), "hold", func(context.Context) ([]byte, error) {
		close(started)
		<-release
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	<-started
	ctx, hangUp := context.WithCancel(context.Background())
	missDone := make(chan *telemetry.Trace)
	go func() {
		_, tr := serve(ctx, cold)
		missDone <- tr
	}()
	waitFor("the miss's job to queue", func() bool { return svc.sched.Stats().QueueDepth == 1 })
	hangUp()
	miss := <-missDone

	_, hit := serve(context.Background(), hot)
	close(release)
	waitFor("the miss's job to run", func() bool { return svc.sched.Stats().Completed == 3 })

	for _, c := range []struct {
		what      string
		got, want []string
	}{
		{"hit log", log.of(hit.ID), []string{"received", "resolved", "served"}},
		{"hit trace", markNames(hit), []string{"received", "resolved", "served"}},
		{"miss log", log.of(miss.ID), []string{"received", "resolved", "queued", "served"}},
		{"miss trace", markNames(miss), []string{"received", "resolved", "queued", "served", "running", "encoded"}},
	} {
		if !slices.Equal(c.got, c.want) {
			t.Errorf("%s spans %v, want %v", c.what, c.got, c.want)
		}
	}
}

// statusLog is an slog handler that keeps each request record's status.
type statusLog struct {
	mu     sync.Mutex
	status map[string]int64
}

func (l *statusLog) Enabled(context.Context, slog.Level) bool { return true }
func (l *statusLog) WithAttrs([]slog.Attr) slog.Handler       { return l }
func (l *statusLog) WithGroup(string) slog.Handler            { return l }

func (l *statusLog) Handle(_ context.Context, r slog.Record) error {
	var id string
	var status int64
	r.Attrs(func(a slog.Attr) bool {
		switch a.Key {
		case "request":
			id = a.Value.String()
		case "status":
			status = a.Value.Int64()
		}
		return true
	})
	l.mu.Lock()
	l.status[id] = status
	l.mu.Unlock()
	return nil
}

// A client that hangs up while its miss waits in the queue is not a
// server error: the request is logged and counted as 499, not 500.
func TestHungUpMissIsClientClosedRequest(t *testing.T) {
	log := &statusLog{status: map[string]int64{}}
	svc := New(Config{CacheSize: 64, Shards: 1, QueueDepth: 8, JobTimeout: time.Minute, SimParallel: 1, Logger: slog.New(log)})
	t.Cleanup(func() { svc.Shutdown(context.Background()) })
	h := svc.Handler()

	// Hold the only shard worker, so the miss's job waits in the queue.
	started, release := make(chan struct{}), make(chan struct{})
	if _, _, err := svc.sched.enqueue(context.Background(), "hold", func(context.Context) ([]byte, error) {
		close(started)
		<-release
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	<-started
	defer close(release)
	ctx, hangUp := context.WithCancel(context.Background())
	missDone := make(chan *httptest.ResponseRecorder)
	go func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/estimate",
			strings.NewReader(`{"trials":100,"horizon_years":50,"seed":33}`)).WithContext(ctx))
		missDone <- rec
	}()
	for deadline := time.Now().Add(30 * time.Second); svc.sched.Stats().QueueDepth != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for the miss's job to queue")
		}
	}
	hangUp()
	miss := <-missDone

	if miss.Code != StatusClientClosedRequest {
		t.Errorf("hung-up miss answered %d, want %d", miss.Code, StatusClientClosedRequest)
	}
	id := miss.Header().Get("X-Ltsimd-Request")
	log.mu.Lock()
	logged := log.status[id]
	log.mu.Unlock()
	if logged != StatusClientClosedRequest {
		t.Errorf("request log status %d, want %d", logged, StatusClientClosedRequest)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if n := metricValue(t, rec.Body.String(), `ltsimd_http_request_seconds_count{route="/estimate",status="499",cache="none"}`); n != 1 {
		t.Errorf("499 /estimate observations = %v, want 1", n)
	}
}

// A context.Canceled is the client's hang-up only when the request's own
// context ended; otherwise Shutdown aborted the job, which is a 503.
func TestSubmitStatusByWhoseContextEnded(t *testing.T) {
	ended, cancel := context.WithCancel(context.Background())
	cancel()
	live := context.Background()
	for _, c := range []struct {
		what string
		ctx  context.Context
		err  error
		want int
	}{
		{"client hung up", ended, context.Canceled, StatusClientClosedRequest},
		{"job aborted by shutdown", live, fmt.Errorf("sim: %w", context.Canceled), http.StatusServiceUnavailable},
		{"shutting down", ended, ErrShuttingDown, http.StatusServiceUnavailable},
		{"job timeout", live, context.DeadlineExceeded, http.StatusGatewayTimeout},
		{"other", live, errors.New("boom"), http.StatusInternalServerError},
	} {
		if got := submitStatus(c.ctx, c.err); got != c.want {
			t.Errorf("%s: status %d, want %d", c.what, got, c.want)
		}
	}
}
