package router

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"repro/internal/service"
)

// TestRouterRequestBodyLimit: the router refuses an /estimate or /sweep
// body over service.MaxBodyBytes with 413 and a JSON error before any
// worker sees it, and serves a legal body of exactly that size.
func TestRouterRequestBodyLimit(t *testing.T) {
	ws := startWorkers(t, 1, nil)
	_, ts := startRouter(t, ws)
	est, err := json.Marshal(estReq{Trials: 50, HorizonYears: 1})
	if err != nil {
		t.Fatal(err)
	}
	sweep, err := json.Marshal(map[string][]estReq{"requests": {{Trials: 50, HorizonYears: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		path string
		body []byte
	}{{"/estimate", est}, {"/sweep", sweep}} {
		pad := func(size int) []byte { return append(bytes.Repeat([]byte{' '}, size-len(c.body)), c.body...) }
		before := completedAcross(ws)
		resp, err := http.Post(ts.URL+c.path, "application/json", bytes.NewReader(pad(service.MaxBodyBytes+1)))
		if err != nil {
			t.Fatal(err)
		}
		payload := slurp(t, resp)
		var e struct {
			Error string `json:"error"`
		}
		if resp.StatusCode != http.StatusRequestEntityTooLarge || json.Unmarshal(payload, &e) != nil || e.Error == "" {
			t.Errorf("%s over the limit: status %d, body %.200q; want 413 and {error: ...}", c.path, resp.StatusCode, payload)
		}
		if n := completedAcross(ws); n != before {
			t.Errorf("%s over the limit: workers completed %d runs, want %d", c.path, n, before)
		}

		resp, err = http.Post(ts.URL+c.path, "application/json", bytes.NewReader(pad(service.MaxBodyBytes)))
		if err != nil {
			t.Fatal(err)
		}
		if payload := slurp(t, resp); resp.StatusCode != http.StatusOK || bytes.Contains(payload, []byte(`"error"`)) {
			t.Errorf("%s at the limit: status %d, body %.200q; want 200 without errors", c.path, resp.StatusCode, payload)
		}
	}
}
