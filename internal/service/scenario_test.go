package service

import (
	"bufio"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/scenario"
)

// testScenario is a small grid+zip document used across the tests.
func testScenario() scenario.Document {
	seed := uint64(11)
	return scenario.Document{
		V:    scenario.Version,
		Name: "service-test",
		Base: scenario.EstimateRequest{Trials: 60, HorizonYears: 50, Seed: &seed},
		Grid: []scenario.Axis{{Param: "replicas", Values: []float64{2, 3}}},
		Zip: []scenario.Axis{
			{Param: "alpha", Values: []float64{1, 0.5}},
			{Param: "scrubs_per_year", Values: []float64{3, 12}},
		},
	}
}

// TestScenarioExpandEndpoint: the dry run streams one line per point
// whose fingerprints match client-side expansion exactly (the daemon
// has no request policy here), plus a summary.
func TestScenarioExpandEndpoint(t *testing.T) {
	_, ts := newTestService(t)
	doc := testScenario()
	points, err := scenario.Expand(doc)
	if err != nil {
		t.Fatal(err)
	}

	resp := postJSON(t, ts.URL+"/scenarios/expand", doc)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("expand: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type = %q", ct)
	}
	var lines []ExpandLine
	var summary ExpandLine
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var l ExpandLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		if l.Summary {
			summary = l
		} else {
			lines = append(lines, l)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) != len(points) {
		t.Fatalf("expand streamed %d points, want %d", len(lines), len(points))
	}
	for i, l := range lines {
		if l.Index != i || l.Error != "" {
			t.Fatalf("line %d = %+v", i, l)
		}
		want, err := points[i].Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if l.Key != want {
			t.Errorf("point %d: server key %s != client key %s", i, l.Key, want)
		}
		if l.Request == nil || l.Request.Replicas != points[i].Request.Replicas {
			t.Errorf("point %d: effective request %+v does not mirror expansion", i, l.Request)
		}
		if len(l.Coords) != 3 {
			t.Errorf("point %d coords = %+v, want 3 axes", i, l.Coords)
		}
	}
	if summary.Points != len(points) || summary.OK != len(points) || summary.Name != doc.Name {
		t.Errorf("summary = %+v", summary)
	}

	// A structurally invalid document is a 400, not a stream.
	bad := postJSON(t, ts.URL+"/scenarios/expand", scenario.Document{V: 99})
	if readAll(t, bad); bad.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid document status = %d, want 400", bad.StatusCode)
	}
}

// TestScenarioExpandUnrunnablePoints: a point the simulator would refuse
// gets no key. The dry run reports it as an error line, and the summary
// counts it as an error, not as ok.
func TestScenarioExpandUnrunnablePoints(t *testing.T) {
	svc, ts := newTestService(t)
	resp, err := http.Post(ts.URL+"/scenarios/expand", "application/json",
		strings.NewReader(`{"v":1,"base":{"trials":1},"grid":[{"param":"replicas","values":[2,3]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("expand: %s: %s", resp.Status, body)
	}
	var lines []ExpandLine
	for _, raw := range strings.Split(strings.TrimSpace(string(body)), "\n") {
		var l ExpandLine
		if err := json.Unmarshal([]byte(raw), &l); err != nil {
			t.Fatalf("bad line %q: %v", raw, err)
		}
		lines = append(lines, l)
	}
	if len(lines) != 3 {
		t.Fatalf("expand streamed %d lines, want 2 points and a summary", len(lines))
	}
	for _, l := range lines[:2] {
		if l.Key != "" || l.Request != nil || !strings.Contains(l.Error, "1 trials, need >= 2") {
			t.Errorf("point %d = %+v, want an error line without a key", l.Index, l)
		}
	}
	if sum := lines[2]; !sum.Summary || sum.Points != 2 || sum.OK != 0 || sum.Errors != 2 {
		t.Errorf("summary = %+v, want 2 points, 0 ok, 2 errors", sum)
	}
	if st := svc.sched.Stats(); st.Completed+st.Failed != 0 {
		t.Errorf("a dry run ran %d scheduler jobs", st.Completed+st.Failed)
	}
}

// TestScenarioSweepMatchesClientExpansion is the acceptance criterion:
// the same document expanded server-side ({"scenario": doc} to /sweep)
// and client-side (scenario.Expand then {"requests": [...]}) yields
// byte-identical per-index result lines and identical fingerprints.
func TestScenarioSweepMatchesClientExpansion(t *testing.T) {
	doc := testScenario()
	points, err := scenario.Expand(doc)
	if err != nil {
		t.Fatal(err)
	}
	var client SweepRequest
	for _, pt := range points {
		client.Requests = append(client.Requests, pt.Request)
	}

	// Separate services so both passes are cold: byte identity must come
	// from determinism, not from one warming the other's cache.
	_, tsServer := newTestService(t)
	_, tsClient := newTestService(t)
	serverLines, serverSum := runSweep(t, tsServer.URL, SweepRequest{Scenario: &doc})
	clientLines, _ := runSweep(t, tsClient.URL, client)

	if len(serverLines) != len(points) || len(clientLines) != len(points) {
		t.Fatalf("line counts %d/%d, want %d", len(serverLines), len(clientLines), len(points))
	}
	for i := range serverLines {
		if serverLines[i] != clientLines[i] {
			t.Errorf("point %d: server-side and client-side expansion bytes differ:\n%s\nvs\n%s",
				i, serverLines[i], clientLines[i])
		}
	}
	if serverSum.OK != len(points) {
		t.Errorf("scenario sweep summary = %+v", serverSum)
	}
}

// TestSweepDedupesIdenticalFingerprints: a cold sweep containing
// duplicate configurations schedules each unique fingerprint once;
// every duplicate index replays the same bytes and is counted in the
// summary's deduped field.
func TestSweepDedupesIdenticalFingerprints(t *testing.T) {
	svc, ts := newTestService(t)
	seed := uint64(5)
	a := EstimateRequest{Trials: 70, HorizonYears: 50, Seed: &seed}
	b := EstimateRequest{Trials: 70, HorizonYears: 50, Seed: &seed, Replicas: 3}
	lines, sum := runSweep(t, ts.URL, SweepRequest{Requests: []EstimateRequest{a, a, a, b}})

	if len(lines) != 4 {
		t.Fatalf("got %d result lines, want 4", len(lines))
	}
	if lines[0] != lines[1] || lines[1] != lines[2] {
		t.Error("duplicate indices did not replay identical bytes")
	}
	if lines[0] == lines[3] {
		t.Error("distinct configuration shared the duplicates' bytes")
	}
	if sum.Deduped != 2 {
		t.Errorf("summary deduped = %d, want 2", sum.Deduped)
	}
	if sum.CacheHits != 0 {
		t.Errorf("cold sweep cache hits = %d, want 0 (dedupe is not a cache hit)", sum.CacheHits)
	}
	if got := svc.Stats().Scheduler.Completed; got != 2 {
		t.Errorf("scheduler completed %d jobs for 4 requests, want 2 (one per unique fingerprint)", got)
	}

	// Warm pass: everything is a cache hit now, dedupe count unchanged.
	_, warm := runSweep(t, ts.URL, SweepRequest{Requests: []EstimateRequest{a, a, a, b}})
	if warm.CacheHits != 4 || warm.Deduped != 2 {
		t.Errorf("warm summary hits/deduped = %d/%d, want 4/2", warm.CacheHits, warm.Deduped)
	}
	if got := svc.Stats().Scheduler.Completed; got != 2 {
		t.Errorf("warm pass scheduled extra jobs: completed = %d, want still 2", got)
	}
}

// TestSweepScenarioCanonicalDedupe: equivalent points produced by the
// expansion itself (min_intact 0 vs its default 1) collide onto one
// scheduled run.
func TestSweepScenarioCanonicalDedupe(t *testing.T) {
	svc, ts := newTestService(t)
	doc := scenario.Document{
		V:    scenario.Version,
		Base: scenario.EstimateRequest{Trials: 70, HorizonYears: 50},
		Grid: []scenario.Axis{{Param: "min_intact", Values: []float64{0, 1}}},
	}
	lines, sum := runSweep(t, ts.URL, SweepRequest{Scenario: &doc})
	if len(lines) != 2 || lines[0] != lines[1] {
		t.Fatalf("equivalent points did not share bytes: %v", lines)
	}
	if sum.Deduped != 1 {
		t.Errorf("deduped = %d, want 1", sum.Deduped)
	}
	if got := svc.Stats().Scheduler.Completed; got != 1 {
		t.Errorf("scheduler ran %d jobs, want 1", got)
	}
}

// TestSweepRejectsAmbiguousBody: requests and scenario are mutually
// exclusive, and a scenario failing validation is a 400.
func TestSweepRejectsAmbiguousBody(t *testing.T) {
	_, ts := newTestService(t)
	doc := testScenario()
	resp := postJSON(t, ts.URL+"/sweep", SweepRequest{
		Requests: []EstimateRequest{{Trials: 50}},
		Scenario: &doc,
	})
	if body := readAll(t, resp); resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "not both") {
		t.Errorf("ambiguous sweep = %d %s, want 400 naming the conflict", resp.StatusCode, body)
	}
	bad := scenario.Document{V: scenario.Version, Grid: []scenario.Axis{{Param: "bogus", Values: []float64{1}}}}
	resp = postJSON(t, ts.URL+"/sweep", SweepRequest{Scenario: &bad})
	if readAll(t, resp); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid scenario sweep status = %d, want 400", resp.StatusCode)
	}
}
