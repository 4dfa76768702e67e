package router

import (
	"bytes"
	"errors"
	"net/http"
	"strings"
	"testing"

	"repro/internal/service"
)

// A repeated /estimate body routes from the body memo: same node, same
// bytes, and the memo's key is the request's Fingerprint. A progress body still
// streams NDJSON from the memo, and a body that fails stays a 400 the
// memo never remembers.
func TestRouterBodyMemo(t *testing.T) {
	ws := startWorkers(t, 2, nil)
	rt, ts := startRouter(t, ws)
	memoized := func(body string) (string, bool) {
		key, _, err := rt.memo.Key([]byte(body), func(service.EstimateRequest) (string, error) {
			return "", errors.New("resolved")
		})
		return key, err == nil
	}
	send := func(body string) (*http.Response, []byte) {
		resp, err := http.Post(ts.URL+"/estimate", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp, slurp(t, resp)
	}

	const plain = `{"trials":100,"horizon_years":50,"seed":5}`
	first, cold := send(plain)
	key, ok := memoized(plain)
	if !ok {
		t.Fatal("a routed body was not memoized")
	}
	seed := uint64(5)
	if want, err := (service.EstimateRequest{Trials: 100, HorizonYears: 50, Seed: &seed}).Fingerprint(); err != nil || key != want {
		t.Fatalf("memoized key %q, Fingerprint %q (%v)", key, want, err)
	}
	resp, warm := send(plain)
	if resp.Header.Get("X-Ltsimr-Node") != first.Header.Get("X-Ltsimr-Node") || !bytes.Equal(warm, cold) {
		t.Fatal("the memoized body routed elsewhere or answered different bytes")
	}
	if got := resp.Header.Get("X-Ltsimd-Cache"); got != "hit" {
		t.Errorf("repeat: X-Ltsimd-Cache %q, want hit", got)
	}

	const progress = `{"trials":100,"horizon_years":50,"seed":5,"progress":true}`
	for i := range 2 {
		resp, body := send(progress)
		if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
			t.Errorf("progress body, attempt %d: content type %q", i, ct)
		}
		if resp.Header.Get("X-Ltsimr-Node") != first.Header.Get("X-Ltsimr-Node") || !bytes.Contains(body, bytes.TrimSpace(cold)) {
			t.Errorf("progress body, attempt %d: routed elsewhere or its final frame lacks the plain answer", i)
		}
	}
	if _, ok := memoized(progress); !ok {
		t.Error("the progress body was not memoized")
	}

	for _, bad := range []string{`{"trials":100,"bogus":1}`, `{"trials":100,"alpha":2}`} {
		var msgs [2]string
		for i := range msgs {
			resp, body := send(bad)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("%s: status %d, want 400", bad, resp.StatusCode)
			}
			msgs[i] = string(body)
		}
		if msgs[0] != msgs[1] {
			t.Errorf("%s: error changed from %s to %s", bad, msgs[0], msgs[1])
		}
		if _, ok := memoized(bad); ok {
			t.Errorf("%s was memoized", bad)
		}
	}
}
