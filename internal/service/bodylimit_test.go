package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/scenario"
)

// maxFleetRequest is the largest /estimate the wire accepts in practice:
// a scenario.MaxReplicas explicit fleet with every field of every entry
// set, a hazard included.
func maxFleetRequest() EstimateRequest {
	seed := uint64(3)
	req := EstimateRequest{Trials: 100, HorizonYears: 1, Seed: &seed, MinIntact: 1}
	for i := 0; i < scenario.MaxReplicas; i++ {
		req.Fleet = append(req.Fleet, scenario.FleetEntry{
			Tier: "enterprise", Label: fmt.Sprintf("replica-%04d-in-the-far-rack", i),
			VisibleMeanHours: 1234567.891, LatentMeanHours: 2345678.912,
			ScrubsPerYear: 12.5, ScrubOffsetHours: 17.25, RepairHours: 23.75,
			AccessRatePerHour: 0.0012345, AccessCoverage: 0.55,
			Hazard: &scenario.HazardSpec{Kind: "bathtub", BurnInHours: 8766, BurnInFactor: 3.25,
				WearOnsetHours: 262980, WearFactor: 4.5, NormalizeHours: 438300},
		})
	}
	return req
}

// padded returns body preceded by whitespace up to size bytes in all: a
// legal JSON document of exactly that size, whose padding a streaming
// decoder must read before it reaches the value.
func padded(body []byte, size int) []byte {
	out := bytes.Repeat([]byte{' '}, size-len(body))
	return append(out, body...)
}

// TestMaxBodyBytesAboveLegalDocuments pins the margin the limit keeps
// over the largest legal /estimate body.
func TestMaxBodyBytesAboveLegalDocuments(t *testing.T) {
	req := maxFleetRequest()
	if _, _, err := req.Build(); err != nil {
		t.Fatalf("max fleet request does not build: %v", err)
	}
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(b)*16 > MaxBodyBytes {
		t.Errorf("a %d-replica fleet body is %d bytes, within 16x of MaxBodyBytes %d", scenario.MaxReplicas, len(b), MaxBodyBytes)
	}
}

// TestRequestBodyLimit: on each endpoint that reads a body, a legal body
// of exactly MaxBodyBytes is served, and one byte more answers 413 with
// a JSON error and schedules nothing.
func TestRequestBodyLimit(t *testing.T) {
	svc, ts := newTestService(t)
	seed := uint64(5)
	est, err := json.Marshal(EstimateRequest{Trials: 50, HorizonYears: 1, Seed: &seed})
	if err != nil {
		t.Fatal(err)
	}
	sweep, err := json.Marshal(SweepRequest{Requests: []EstimateRequest{{Trials: 50, HorizonYears: 2, Seed: &seed}}})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := json.Marshal(scenario.Document{V: 1, Base: scenario.EstimateRequest{Trials: 50, HorizonYears: 1, Seed: &seed},
		Grid: []scenario.Axis{{Param: "replicas", Values: []float64{2, 3}}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		path string
		body []byte
	}{{"/estimate", est}, {"/sweep", sweep}, {"/scenarios/expand", doc}} {
		before := svc.Stats().Scheduler.Completed
		resp, err := http.Post(ts.URL+c.path, "application/json", bytes.NewReader(padded(c.body, MaxBodyBytes+1)))
		if err != nil {
			t.Fatal(err)
		}
		payload := readAll(t, resp)
		var e struct {
			Error string `json:"error"`
		}
		if resp.StatusCode != http.StatusRequestEntityTooLarge || json.Unmarshal(payload, &e) != nil || e.Error == "" {
			t.Errorf("%s over the limit: status %d, body %.200q; want 413 and {error: ...}", c.path, resp.StatusCode, payload)
		}
		if st := svc.Stats().Scheduler; st.Completed != before || st.Inflight != 0 {
			t.Errorf("%s over the limit scheduled work: completed %d -> %d, inflight %d", c.path, before, st.Completed, st.Inflight)
		}

		resp, err = http.Post(ts.URL+c.path, "application/json", bytes.NewReader(padded(c.body, MaxBodyBytes)))
		if err != nil {
			t.Fatal(err)
		}
		payload = readAll(t, resp)
		if resp.StatusCode != http.StatusOK || strings.Contains(string(payload), `"error"`) {
			t.Errorf("%s at the limit: status %d, body %.200q; want 200 without errors", c.path, resp.StatusCode, payload)
		}
	}
}

// TestDeclaredLengthNotTrusted: a request declaring the largest
// Content-Length net/http accepts, over a short body, is answered from
// the bytes that arrive; the declared length sizes nothing it cannot.
func TestDeclaredLengthNotTrusted(t *testing.T) {
	svc := New(Config{CacheSize: 16, Shards: 1, QueueDepth: 8, JobTimeout: time.Minute, SimParallel: 2})
	t.Cleanup(func() { svc.Shutdown(context.Background()) })
	h := svc.Handler()
	est := `{"trials":50,"horizon_years":1,"seed":5}`
	for path, body := range map[string]string{"/estimate": est, "/sweep": `{"requests":[` + est + `]}`} {
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
		req.ContentLength = math.MaxInt64
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK || strings.Contains(rec.Body.String(), `"error"`) {
			t.Errorf("%s declaring %d bytes: status %d, body %.200q; want 200 without errors", path, req.ContentLength, rec.Code, rec.Body)
		}
	}
}

// TestOverflowingHorizonServed: horizon_years 1e305 overflows to +Inf
// hours. Such a request censors nothing and is answered like a run to
// loss; it must not take the daemon down, and the daemon keeps serving.
func TestOverflowingHorizonServed(t *testing.T) {
	_, ts := newTestService(t)
	for _, path := range []string{"/estimate", "/sweep"} {
		body := `{"trials":50,"horizon_years":1e305,"seed":5,"visible_mean_hours":1000,"latent_mean_hours":2000}`
		if path == "/sweep" {
			body = `{"requests":[` + body + `]}`
		}
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		payload := readAll(t, resp)
		if resp.StatusCode != http.StatusOK || strings.Contains(string(payload), `"error"`) ||
			!strings.Contains(string(payload), `"censored":0`) {
			t.Errorf("%s: status %d, body %.300q; want 200 with an uncensored estimate", path, resp.StatusCode, payload)
		}
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if readAll(t, resp); resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz after the request: status %d", resp.StatusCode)
	}
}

// TestLargeExplicitSweepRefused pins the contract MaxBodyBytes documents
// for /sweep: an explicit list within scenario.MaxPoints whose every
// request is legal is still refused with 413 once the body passes the
// limit, and the error names the ways round it.
func TestLargeExplicitSweepRefused(t *testing.T) {
	svc, ts := newTestService(t)
	req := maxFleetRequest()
	req.Fleet = req.Fleet[:4]
	if _, _, err := req.Build(); err != nil {
		t.Fatalf("sweep point does not build: %v", err)
	}
	point, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	n := MaxBodyBytes/len(point) + 1
	if n > scenario.MaxPoints {
		t.Fatalf("%d points of %d bytes needed to pass the limit, more than MaxPoints", n, len(point))
	}
	var body bytes.Buffer
	body.WriteString(`{"requests":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			body.WriteByte(',')
		}
		body.Write(point)
	}
	body.WriteString(`]}`)
	resp, err := http.Post(ts.URL+"/sweep", "application/json", &body)
	if err != nil {
		t.Fatal(err)
	}
	payload := readAll(t, resp)
	var e struct {
		Error string `json:"error"`
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge || json.Unmarshal(payload, &e) != nil ||
		!strings.Contains(e.Error, "scenario document") {
		t.Errorf("%d-point sweep of %d-byte requests: status %d, body %.200q; want 413 naming the scenario document",
			n, len(point), resp.StatusCode, payload)
	}
	if st := svc.Stats().Scheduler; st.Completed != 0 || st.Inflight != 0 {
		t.Errorf("refused sweep scheduled work: completed %d, inflight %d", st.Completed, st.Inflight)
	}
}
