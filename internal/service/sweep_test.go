package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"repro/internal/scenario"
)

// serveSweep sends body to h's /sweep and returns its point lines as
// sent, sorted (they stream in completion order), and its summary.
func serveSweep(tb testing.TB, h http.Handler, body []byte) ([]string, SweepLine) {
	tb.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/sweep", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		tb.Fatalf("sweep: %d %s", rec.Code, rec.Body)
	}
	var lines []string
	var summary SweepLine
	for _, raw := range bytes.SplitAfter(rec.Body.Bytes(), []byte("\n")) {
		if len(raw) == 0 {
			continue
		}
		var line SweepLine
		if err := json.Unmarshal(raw, &line); err != nil {
			tb.Fatalf("bad NDJSON line %q: %v", raw, err)
		}
		if line.Summary {
			summary = line
			continue
		}
		lines = append(lines, string(raw))
	}
	if !summary.Summary {
		tb.Fatal("sweep response missing summary line")
	}
	slices.Sort(lines)
	return lines, summary
}

// sweepRemembered reports whether svc's sweep memo holds body's keys.
func sweepRemembered(svc *Service, body []byte) bool {
	_, ok := svc.sweepMemo.get(sha256.Sum256(body))
	return ok
}

// sweepOf marshals a /sweep body.
func sweepOf(tb testing.TB, sr SweepRequest) []byte {
	tb.Helper()
	b, err := json.Marshal(sr)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// A remembered body whose keys all left the cache recomputes them: the
// replay is a memo hit with no cache hits, and its lines are the bytes
// of the first answer. A sweep heavier than one memo generation is never
// remembered.
func TestSweepMemoHitAfterEviction(t *testing.T) {
	svc := New(Config{CacheSize: 8, Shards: 1, QueueDepth: 8, JobTimeout: time.Minute, SimParallel: 2})
	t.Cleanup(func() { svc.Shutdown(context.Background()) })
	h := svc.Handler()
	seed := uint64(31)
	points := func(n int, alpha float64) []byte {
		var sr SweepRequest
		for i := range n {
			sr.Requests = append(sr.Requests, EstimateRequest{Trials: 60, HorizonYears: 50, Seed: &seed, Replicas: 2 + i, Alpha: alpha})
		}
		return sweepOf(t, sr)
	}
	four, eight := points(4, 1), points(8, 0.5)

	first, sum := serveSweep(t, h, four)
	if sum.OK != 4 || sum.CacheHits != 0 || !sweepRemembered(svc, four) {
		t.Fatalf("first sweep: summary %+v, remembered %t; want 4 ok and remembered", sum, sweepRemembered(svc, four))
	}
	if _, sum := serveSweep(t, h, eight); sum.OK != 8 {
		t.Fatalf("eviction sweep: summary %+v", sum)
	}
	if sweepRemembered(svc, eight) {
		t.Error("an 8-point sweep was remembered by a memo whose generations hold 4")
	}
	if !sweepRemembered(svc, four) {
		t.Fatal("the 4-point body left the memo")
	}
	before := svc.Stats()
	again, sum := serveSweep(t, h, four)
	if sum.OK != 4 || sum.CacheHits != 0 {
		t.Errorf("replay summary %+v, want 4 ok and no cache hits", sum)
	}
	if d := svc.Stats().Scheduler.Completed - before.Scheduler.Completed; d != 4 {
		t.Errorf("replay ran %d jobs, want 4", d)
	}
	if !slices.Equal(again, first) {
		t.Errorf("replay lines differ from the first answer:\n%q\nvs\n%q", again, first)
	}
}

// A body with a point that cannot run is never remembered, and it
// answers the same lines every time.
func TestSweepMemoSkipsUnrunnableBodies(t *testing.T) {
	svc, _ := newTestService(t)
	h := svc.Handler()
	seed := uint64(32)
	body := sweepOf(t, SweepRequest{Requests: []EstimateRequest{
		{Trials: 60, HorizonYears: 50, Seed: &seed},
		{Trials: 60, HorizonYears: 50, Seed: &seed, Alpha: 2},
	}})
	first, sum1 := serveSweep(t, h, body)
	again, sum2 := serveSweep(t, h, body)
	if sum1.OK != 1 || sum1.Errors != 1 || sum2.OK != 1 || sum2.Errors != 1 {
		t.Errorf("summaries %+v and %+v, want 1 ok and 1 error each", sum1, sum2)
	}
	if !slices.Equal(first, again) {
		t.Errorf("lines changed between answers:\n%q\nvs\n%q", first, again)
	}
	if sweepRemembered(svc, body) {
		t.Error("a body with an unrunnable point was remembered")
	}
}

// The sweep memo weighs a body by its points: a generation holds
// capacity/2 of them, a rotation keeps the previous generation, and a
// body heavier than a generation is never stored.
func TestSweepMemoWeights(t *testing.T) {
	m := NewSweepMemo(8)
	sum := func(b string) [sha256.Size]byte { return sha256.Sum256([]byte(b)) }
	keys := func(n int) []string { return make([]string, n) }
	m.put(sum("heavy"), keys(5), 5)
	if _, ok := m.get(sum("heavy")); ok {
		t.Error("a 5-point body was stored in 4-point generations")
	}
	m.put(sum("a"), keys(4), 4)
	m.put(sum("b"), keys(3), 3) // rotates: a is in the old generation
	if _, ok := m.get(sum("a")); !ok {
		t.Fatal("a rotation dropped the previous generation")
	}
	// Promoting a (4) rotated b out of the current generation, so c
	// rotating again drops b.
	m.put(sum("c"), keys(1), 1)
	if _, ok := m.get(sum("b")); ok {
		t.Error("b survived two rotations")
	}
	for _, b := range []string{"a", "c"} {
		if _, ok := m.get(sum(b)); !ok {
			t.Errorf("%s was dropped", b)
		}
	}
}

// Under a request policy, the keys a remembered sweep answers with are
// the keys /scenarios/expand reports, index for index.
func TestSweepMemoKeysMatchExpandUnderPolicy(t *testing.T) {
	svc := New(Config{CacheSize: 64, Shards: 2, QueueDepth: 16, JobTimeout: time.Minute, SimParallel: 2,
		DefaultTargetRel: 0.5, MaxTrialsCap: 400})
	t.Cleanup(func() { svc.Shutdown(context.Background()) })
	h := svc.Handler()
	doc := testScenario()
	doc.Base.Trials = 0 // budget-less, so the policy makes every point adaptive
	docBody, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/scenarios/expand", bytes.NewReader(docBody)))
	want := map[int]string{}
	for _, raw := range bytes.Split(bytes.TrimSpace(rec.Body.Bytes()), []byte("\n")) {
		var line ExpandLine
		if err := json.Unmarshal(raw, &line); err != nil {
			t.Fatalf("bad expand line %q: %v", raw, err)
		}
		if !line.Summary {
			want[line.Index] = line.Key
		}
	}
	body := sweepOf(t, SweepRequest{Scenario: &doc})
	for pass := range 2 {
		if pass == 1 && !sweepRemembered(svc, body) {
			t.Fatal("the scenario sweep was not remembered")
		}
		lines, sum := serveSweep(t, h, body)
		if sum.OK != len(want) {
			t.Fatalf("pass %d: summary %+v, want %d ok", pass, sum, len(want))
		}
		for _, raw := range lines {
			var line SweepLine
			if err := json.Unmarshal([]byte(raw), &line); err != nil {
				t.Fatal(err)
			}
			if line.Key != want[line.Index] {
				t.Errorf("pass %d index %d: key %s, /scenarios/expand says %s", pass, line.Index, line.Key, want[line.Index])
			}
		}
	}
}

// warmSweep returns a handler whose cache and sweep memo hold every key
// of body, a 192-point scenario sweep with 96 unique points.
func warmSweep(tb testing.TB) (http.Handler, []byte) {
	tb.Helper()
	svc := New(Config{CacheSize: 1024, Shards: 2, QueueDepth: 32, JobTimeout: time.Minute, SimParallel: 2})
	tb.Cleanup(func() { svc.Shutdown(context.Background()) })
	seed := uint64(17)
	doc := scenario.Document{V: scenario.Version, Name: "warm",
		Base: scenario.EstimateRequest{Trials: 40, HorizonYears: 50, Seed: &seed,
			Hazard: &scenario.HazardSpec{Kind: "weibull", Shape: 1.5, ScaleHours: 200000, NormalizeHours: 438300}},
		Grid: []scenario.Axis{
			{Param: "replicas", Values: []float64{2, 3, 4}},
			{Param: "scrubs_per_year", Values: []float64{1, 3, 12, 52}},
			{Param: "hazard.shape", Values: []float64{1, 1.5, 2, 3}},
			{Param: "alpha", Values: []float64{1, 0.5}},
			{Param: "min_intact", Values: []float64{0, 1}},
		}}
	body := sweepOf(tb, SweepRequest{Scenario: &doc})
	h := svc.Handler()
	serveSweep(tb, h, body)
	if _, sum := serveSweep(tb, h, body); sum.Requested != 192 || sum.CacheHits != 192 || sum.Deduped != 96 {
		tb.Fatalf("warm sweep summary %+v, want 192 points, all hits, 96 deduped", sum)
	}
	if !sweepRemembered(svc, body) {
		tb.Fatal("the warm sweep is not remembered")
	}
	return h, body
}

// BenchmarkSweepWarm replays a remembered 192-point sweep whose every
// key is cached, through the full handler.
func BenchmarkSweepWarm(b *testing.B) {
	h, body := warmSweep(b)
	b.ReportAllocs()
	for b.Loop() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/sweep", bytes.NewReader(body)))
	}
}

// BenchmarkEstimateWarmHit serves one warm /estimate memory hit through
// the full handler with a harness that allocates nothing itself, so its
// figures are the daemon's own.
func BenchmarkEstimateWarmHit(b *testing.B) {
	hh := warmHit(b)
	b.ReportAllocs()
	for b.Loop() {
		hh.serve()
	}
}

// A warm replay of a remembered sweep, counting httptest's request and
// recorder, allocates at most 4 times per point: it measured 2.7, where
// re-resolving every point and encoding every line through json.Encoder
// took 24.4.
func TestWarmSweepAllocs(t *testing.T) {
	h, body := warmSweep(t)
	allocs := testing.AllocsPerRun(50, func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/sweep", bytes.NewReader(body)))
	}) / 192
	t.Logf("%.2f allocs per warm sweep point", allocs)
	if allocs > 4 {
		t.Errorf("%.2f allocs per warm sweep point, want at most 4", allocs)
	}
}
