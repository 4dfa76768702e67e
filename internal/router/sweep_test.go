package router

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/scenario"
	"repro/internal/service"
)

// TestSweepRejectionsMatchDaemon: the daemon's /sweep and the router's
// /sweep reject the same malformed bodies with 400 and the same error
// string, because both run the one shared fan-out.
func TestSweepRejectionsMatchDaemon(t *testing.T) {
	ws := startWorkers(t, 1, nil)
	_, rts := startRouter(t, ws)

	doc := scenario.Document{V: scenario.Version, Base: service.EstimateRequest{Trials: 50}}
	both, err := json.Marshal(service.SweepRequest{Requests: []service.EstimateRequest{{Trials: 50}}, Scenario: &doc})
	if err != nil {
		t.Fatal(err)
	}
	oversized, err := json.Marshal(service.SweepRequest{Requests: make([]service.EstimateRequest, scenario.MaxPoints+1)})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		body []byte
		want string
	}{
		{"requests and scenario", both, "sweep takes requests or a scenario, not both"},
		{"empty body", []byte(""), "decoding request: EOF"},
		{"no requests", []byte("{}"), "sweep needs at least one request"},
		{"oversized list", oversized, fmt.Sprintf("sweep of %d requests exceeds the %d limit", scenario.MaxPoints+1, scenario.MaxPoints)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, base := range []string{ws[0].ts.URL, rts.URL} {
				resp, err := http.Post(base+"/sweep", "application/json", bytes.NewReader(tc.body))
				if err != nil {
					t.Fatal(err)
				}
				var got struct {
					Error string `json:"error"`
				}
				if err := json.Unmarshal(slurp(t, resp), &got); err != nil {
					t.Fatalf("%s: error body is not JSON: %v", base, err)
				}
				if resp.StatusCode != http.StatusBadRequest || got.Error != tc.want {
					t.Errorf("%s: status %d error %q, want 400 %q", base, resp.StatusCode, got.Error, tc.want)
				}
			}
		})
	}
}

// TestRouterRoutedCountsProgressStreams: /stats "routed" counts every
// upstream dispatch, progress-streamed estimates included, so it equals
// the sum of the ltsimr_requests_total series.
func TestRouterRoutedCountsProgressStreams(t *testing.T) {
	ws := startWorkers(t, 2, nil)
	_, ts := startRouter(t, ws)

	slurp(t, post(t, ts.URL+"/estimate", estReq{Trials: 60, HorizonYears: 50}))
	slurp(t, post(t, ts.URL+"/estimate", estReq{Trials: 70, HorizonYears: 50, Progress: true}))

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var requests float64
	for _, line := range strings.Split(string(slurp(t, resp)), "\n") {
		if !strings.HasPrefix(line, "ltsimr_requests_total{") {
			continue
		}
		var v float64
		if _, err := fmt.Sscan(line[strings.LastIndexByte(line, ' ')+1:], &v); err != nil {
			t.Fatalf("bad sample %q: %v", line, err)
		}
		requests += v
	}
	if requests != 2 {
		t.Fatalf("ltsimr_requests_total sums to %g, want 2", requests)
	}

	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var snap StatsSnapshot
	if err := json.Unmarshal(slurp(t, resp), &snap); err != nil {
		t.Fatal(err)
	}
	if float64(snap.Routed) != requests {
		t.Fatalf("/stats routed = %d, want %g (the ltsimr_requests_total sum)", snap.Routed, requests)
	}
}

// TestRouterSweepRefusesNonJSONWorkerBody: a worker that answers 200
// with bytes that are not JSON gives each of its points an error line,
// counted under "errors", not an "ok" with no line.
func TestRouterSweepRefusesNonJSONWorkerBody(t *testing.T) {
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		if r.URL.Path == "/estimate" {
			w.Write([]byte("not json\n"))
		}
	}))
	t.Cleanup(fake.Close)
	rt, err := New(Config{Workers: []Worker{{Name: "fake", URL: fake.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(func() {
		ts.Close()
		rt.Close()
	})

	sweep := map[string][]estReq{"requests": {{Trials: 50, HorizonYears: 50}, {Trials: 60, HorizonYears: 50}}}
	lines, sum := decodeSweep(t, slurp(t, post(t, ts.URL+"/sweep", sweep)))
	if sum.OK != 0 || sum.Errors != 2 || len(lines) != 2 {
		t.Fatalf("summary %+v with %d lines, want 2 errors and 2 lines", sum, len(lines))
	}
	for _, l := range lines {
		if !strings.Contains(l.Error, "not JSON") || l.Result != nil {
			t.Errorf("line %+v, want an error naming the non-JSON body", l)
		}
	}
}
