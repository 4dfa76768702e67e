package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/storage"
)

// newTestService returns a small running service and its HTTP server.
func newTestService(t *testing.T) (*Service, *httptest.Server) {
	t.Helper()
	svc := New(Config{CacheSize: 256, Shards: 2, QueueDepth: 32, JobTimeout: time.Minute, SimParallel: 2})
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Shutdown(context.Background())
	})
	return svc, ts
}

// postJSON posts a JSON body and returns the response.
func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestEstimateMissThenHitBitIdentical(t *testing.T) {
	_, ts := newTestService(t)
	seed := uint64(7)
	req := EstimateRequest{Trials: 120, HorizonYears: 50, Seed: &seed}

	first := postJSON(t, ts.URL+"/estimate", req)
	if first.StatusCode != http.StatusOK {
		t.Fatalf("first request: %s: %s", first.Status, readAll(t, first))
	}
	if got := first.Header.Get("X-Ltsimd-Cache"); got != "miss" {
		t.Errorf("first request cache disposition = %q, want miss", got)
	}
	key := first.Header.Get("X-Ltsimd-Key")
	if len(key) != 64 {
		t.Errorf("fingerprint %q is not a hex sha256", key)
	}
	body1 := readAll(t, first)

	second := postJSON(t, ts.URL+"/estimate", req)
	if got := second.Header.Get("X-Ltsimd-Cache"); got != "hit" {
		t.Errorf("second request cache disposition = %q, want hit", got)
	}
	if got := second.Header.Get("X-Ltsimd-Key"); got != key {
		t.Errorf("key changed between identical requests: %q vs %q", key, got)
	}
	body2 := readAll(t, second)
	if !bytes.Equal(body1, body2) {
		t.Errorf("cached response differs from computed response:\n%s\nvs\n%s", body1, body2)
	}

	var est struct {
		MTTDLYears struct{ Point float64 } `json:"mttdl_years"`
		Trials     int                     `json:"trials"`
	}
	if err := json.Unmarshal(body1, &est); err != nil {
		t.Fatalf("response is not estimate JSON: %v", err)
	}
	if est.Trials != 120 || est.MTTDLYears.Point <= 0 {
		t.Errorf("estimate = %+v, want 120 trials and positive MTTDL", est)
	}
}

// TestEstimateEquivalentRequestsShareCacheEntry exercises canonical
// hashing over the wire: a fleet written as named tiers and the same
// fleet written as explicit numbers resolve to the same sim.Config, so
// the daemon gives them one cache entry and bit-identical bytes.
func TestEstimateEquivalentRequestsShareCacheEntry(t *testing.T) {
	_, ts := newTestService(t)
	tiered := EstimateRequest{
		Fleet:  []scenario.FleetEntry{{Tier: "consumer"}, {Tier: "consumer"}},
		Trials: 100, HorizonYears: 50,
	}
	// Spell out the exact numbers the tier resolves to.
	s, ok := storage.TierSpec("consumer", 3)
	if !ok {
		t.Fatal("consumer tier missing")
	}
	entry := scenario.FleetEntryFromSpec(s)
	explicit := EstimateRequest{
		Fleet:  []scenario.FleetEntry{entry, entry},
		Trials: 100, HorizonYears: 50,
	}

	r1 := postJSON(t, ts.URL+"/estimate", tiered)
	if r1.StatusCode != http.StatusOK {
		t.Fatalf("tiered: %s: %s", r1.Status, readAll(t, r1))
	}
	k1 := r1.Header.Get("X-Ltsimd-Key")
	b1 := readAll(t, r1)

	r2 := postJSON(t, ts.URL+"/estimate", explicit)
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("explicit: %s: %s", r2.Status, readAll(t, r2))
	}
	if k2 := r2.Header.Get("X-Ltsimd-Key"); k2 != k1 {
		t.Errorf("equivalent requests got different keys:\n%s\nvs\n%s", k1, k2)
	}
	if disp := r2.Header.Get("X-Ltsimd-Cache"); disp != "hit" {
		t.Errorf("equivalent request cache disposition = %q, want hit", disp)
	}
	if b2 := readAll(t, r2); !bytes.Equal(b1, b2) {
		t.Error("equivalent requests returned different bytes")
	}
}

func TestEstimateRejectsBadRequests(t *testing.T) {
	_, ts := newTestService(t)
	for name, body := range map[string]string{
		"malformed":     `{"trials": `,
		"unknown field": `{"trialz": 100}`,
		"bad alpha":     `{"alpha": 2}`,
		"bad tier":      `{"fleet": [{"tier": "floppy"}]}`,
		"one trial":     `{"trials": 1}`,
		"bad level":     `{"level": 1.5, "trials": 100}`,
	} {
		resp, err := http.Post(ts.URL+"/estimate", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		payload := readAll(t, resp)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, body %s; want 400", name, resp.StatusCode, payload)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(payload, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body %q is not {error: ...}", name, payload)
		}
	}
}

// sweepGrid builds the acceptance-criteria parameter grid: ≥20 distinct
// configurations spanning replication level, scrub rate, and correlation.
func sweepGrid() SweepRequest {
	var sr SweepRequest
	seed := uint64(3)
	for _, replicas := range []int{2, 3} {
		for _, alpha := range []float64{1, 0.5} {
			for scrubs := 1; scrubs <= 6; scrubs++ {
				s := float64(scrubs)
				sr.Requests = append(sr.Requests, EstimateRequest{
					Replicas:      replicas,
					Alpha:         alpha,
					ScrubsPerYear: &s,
					Trials:        80,
					HorizonYears:  50,
					Seed:          &seed,
				})
			}
		}
	}
	return sr
}

// runSweep posts a sweep and returns result lines by index plus the
// summary.
func runSweep(t *testing.T, url string, sr SweepRequest) (map[int]string, SweepLine) {
	t.Helper()
	resp := postJSON(t, url+"/sweep", sr)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("sweep content type = %q", ct)
	}
	results := make(map[int]string)
	var summary SweepLine
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var line SweepLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if line.Summary {
			summary = line
			continue
		}
		if line.Error != "" {
			t.Fatalf("sweep item %d failed: %s", line.Index, line.Error)
		}
		results[line.Index] = string(line.Result)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !summary.Summary {
		t.Fatal("sweep response missing summary line")
	}
	return results, summary
}

// TestSweepTwiceBitIdenticalAndCached is the PR's acceptance scenario: a
// grid of ≥20 configs submitted twice returns bit-identical results both
// times, with the second pass served (almost) entirely from cache.
func TestSweepTwiceBitIdenticalAndCached(t *testing.T) {
	_, ts := newTestService(t)
	grid := sweepGrid()
	if len(grid.Requests) < 20 {
		t.Fatalf("grid has %d configs, need >= 20", len(grid.Requests))
	}

	first, sum1 := runSweep(t, ts.URL, grid)
	second, sum2 := runSweep(t, ts.URL, grid)

	if len(first) != len(grid.Requests) || len(second) != len(grid.Requests) {
		t.Fatalf("result counts %d/%d, want %d", len(first), len(second), len(grid.Requests))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Errorf("config %d: results differ between passes:\n%s\nvs\n%s", i, first[i], second[i])
		}
	}
	if sum1.OK != len(grid.Requests) || sum2.OK != len(grid.Requests) {
		t.Errorf("ok counts %d/%d, want all %d", sum1.OK, sum2.OK, len(grid.Requests))
	}
	minHits := int(0.95 * float64(len(grid.Requests)))
	if sum2.CacheHits < minHits {
		t.Errorf("second pass cache hits = %d of %d, want >= %d", sum2.CacheHits, len(grid.Requests), minHits)
	}
}

func TestSweepRejectsEmpty(t *testing.T) {
	_, ts := newTestService(t)
	resp := postJSON(t, ts.URL+"/sweep", SweepRequest{})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty sweep status = %d, want 400", resp.StatusCode)
	}
}

func TestSweepReportsPerItemErrors(t *testing.T) {
	_, ts := newTestService(t)
	bad := EstimateRequest{Alpha: 5, Trials: 50}
	good := EstimateRequest{Trials: 80, HorizonYears: 50}
	results := make(map[int]SweepLine)
	resp := postJSON(t, ts.URL+"/sweep", SweepRequest{Requests: []EstimateRequest{bad, good}})
	defer resp.Body.Close()
	var summary SweepLine
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var line SweepLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatal(err)
		}
		if line.Summary {
			summary = line
		} else {
			results[line.Index] = line
		}
	}
	if results[0].Error == "" {
		t.Error("invalid item 0 did not report an error")
	}
	if results[1].Error != "" || len(results[1].Result) == 0 {
		t.Errorf("valid item 1 = %+v, want a result", results[1])
	}
	if summary.OK != 1 || summary.Errors != 1 {
		t.Errorf("summary ok/errors = %d/%d, want 1/1", summary.OK, summary.Errors)
	}
}

func TestExperimentsEndpoints(t *testing.T) {
	_, ts := newTestService(t)
	resp, err := http.Get(ts.URL + "/experiments")
	if err != nil {
		t.Fatal(err)
	}
	var index []struct{ ID, Title, Source string }
	if err := json.Unmarshal(readAll(t, resp), &index); err != nil {
		t.Fatal(err)
	}
	if len(index) == 0 {
		t.Fatal("experiment index is empty")
	}

	run := func() []byte {
		r, err := http.Post(ts.URL+"/experiments/run?id="+index[0].ID+"&quick=1", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		if r.StatusCode != http.StatusOK {
			t.Fatalf("run %s: %s: %s", index[0].ID, r.Status, readAll(t, r))
		}
		return readAll(t, r)
	}
	body1 := run()
	body2 := run()
	if !bytes.Equal(body1, body2) {
		t.Error("repeat experiment run is not bit-identical")
	}
	var res struct {
		ID     string          `json:"id"`
		Tables json.RawMessage `json:"tables"`
	}
	if err := json.Unmarshal(body1, &res); err != nil {
		t.Fatal(err)
	}
	if res.ID != index[0].ID {
		t.Errorf("ran %q, want %q", res.ID, index[0].ID)
	}

	r404, err := http.Post(ts.URL+"/experiments/run?id=E999", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	if readAll(t, r404); r404.StatusCode != http.StatusNotFound {
		t.Errorf("unknown experiment status = %d, want 404", r404.StatusCode)
	}
}

func TestHealthzAndStats(t *testing.T) {
	_, ts := newTestService(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal(readAll(t, resp), &health); err != nil || health.Status != "ok" {
		t.Fatalf("healthz = %+v, %v", health, err)
	}

	// Generate one miss and one hit, then check the counters add up.
	req := EstimateRequest{Trials: 80, HorizonYears: 50}
	readAll(t, postJSON(t, ts.URL+"/estimate", req))
	readAll(t, postJSON(t, ts.URL+"/estimate", req))
	sresp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats StatsSnapshot
	if err := json.Unmarshal(readAll(t, sresp), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Cache.Hits < 1 || stats.Cache.Misses < 1 {
		t.Errorf("cache stats = %+v, want at least one hit and one miss", stats.Cache)
	}
	if stats.Scheduler.Completed < 1 {
		t.Errorf("scheduler stats = %+v, want at least one completed job", stats.Scheduler)
	}
	if stats.Scheduler.Shards != 2 {
		t.Errorf("shards = %d, want 2", stats.Scheduler.Shards)
	}
}

// A run to loss that would never finish is ended by the job timeout
// from inside its one trial: the request answers 504, the shard is
// counted a timeout, and the next request on the same shard answers
// 200 instead of queueing behind it.
func TestJobTimeoutEndsEndlessTrial(t *testing.T) {
	svc := New(Config{CacheSize: 8, Shards: 1, QueueDepth: 4, JobTimeout: time.Second, SimParallel: 1})
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Shutdown(context.Background())
	})
	start := time.Now()
	resp, err := http.Post(ts.URL+"/estimate", "application/json", strings.NewReader(`{"replicas":6,"trials":2}`))
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("endless run answered %d %s, want 504", resp.StatusCode, body)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("endless run took %v to time out", elapsed)
	}
	resp = postJSON(t, ts.URL+"/estimate", EstimateRequest{Trials: 50, HorizonYears: 10})
	if body := readAll(t, resp); resp.StatusCode != http.StatusOK {
		t.Fatalf("next request answered %d %s, want 200", resp.StatusCode, body)
	}
	if st := svc.sched.Stats(); st.Timeouts != 1 || st.Completed != 1 {
		t.Errorf("timeouts/completed = %d/%d, want 1/1", st.Timeouts, st.Completed)
	}
}

// TestShutdownMidSweepDrainsCleanly kills the service while a sweep is
// in flight: in-flight jobs drain, the response completes (every item
// answered or errored), and no goroutines leak — the -race run in CI
// doubles as the data-race check on the drain path.
func TestShutdownMidSweepDrainsCleanly(t *testing.T) {
	before := runtime.NumGoroutine()
	svc := New(Config{CacheSize: 64, Shards: 2, QueueDepth: 32, JobTimeout: time.Minute, SimParallel: 1})
	ts := httptest.NewServer(svc.Handler())

	grid := sweepGrid()
	for i := range grid.Requests {
		grid.Requests[i].Trials = 400 // slow enough to still be running at shutdown
	}
	b, err := json.Marshal(grid)
	if err != nil {
		t.Fatal(err)
	}
	sweepDone := make(chan error, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/sweep", "application/json", bytes.NewReader(b))
		if err != nil {
			sweepDone <- err
			return
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		lines := 0
		for sc.Scan() {
			lines++
		}
		if lines != len(grid.Requests)+1 {
			sweepDone <- fmt.Errorf("sweep returned %d lines, want %d", lines, len(grid.Requests)+1)
			return
		}
		sweepDone <- sc.Err()
	}()

	time.Sleep(30 * time.Millisecond) // let some jobs start
	if err := svc.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-sweepDone; err != nil {
		t.Fatalf("mid-shutdown sweep: %v", err)
	}
	ts.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle: %d before, %d after shutdown", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}
