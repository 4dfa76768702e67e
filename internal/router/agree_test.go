package router

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// seriesSum adds up every sample of one series in exposition text.
func seriesSum(t *testing.T, text, name string) uint64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + `(?:\{[^}]*\})? ([0-9]+)$`)
	matches := re.FindAllStringSubmatch(text, -1)
	if len(matches) == 0 {
		t.Fatalf("series %s not found in exposition", name)
	}
	var sum uint64
	for _, m := range matches {
		v, err := strconv.ParseUint(m[1], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		sum += v
	}
	return sum
}

// failingTransport fails every /estimate to one host while broken is
// set, and passes everything else (health probes included) through: a
// worker that dies under a request but still answers its probe.
type failingTransport struct {
	host   string
	broken atomic.Bool
}

func (f *failingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if f.broken.Load() && req.URL.Host == f.host && req.URL.Path == "/estimate" {
		return nil, errors.New("connection reset")
	}
	return http.DefaultTransport.RoundTrip(req)
}

// TestRouterStatsAgreeWithMetrics: the router's /stats and /metrics read
// one set of counters. Traffic produces coalesced duplicates, a
// request-time ejection with a retry on the successor, and the probe's
// re-admission of the ejected worker; then every /stats counter must
// equal its /metrics series, and routed must equal
// ltsimr_requests_total summed over nodes.
func TestRouterStatsAgreeWithMetrics(t *testing.T) {
	ws := startWorkers(t, 2, nil)
	tr := &failingTransport{host: strings.TrimPrefix(ws[0].ts.URL, "http://")}
	rt, err := New(Config{
		Workers:       []Worker{{Name: "w0", URL: ws[0].ts.URL}, {Name: "w1", URL: ws[1].ts.URL}},
		ProbeInterval: 25 * time.Millisecond,
		ProbeTimeout:  500 * time.Millisecond,
		Client:        &http.Client{Transport: tr},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(func() {
		ts.Close()
		rt.Close()
	})

	// Duplicates arriving while the owner's dispatch is stalled coalesce.
	for _, w := range ws {
		w.delay.Store(int64(200 * time.Millisecond))
	}
	var wg sync.WaitGroup
	for i := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			slurp(t, post(t, ts.URL+"/estimate", estReq{Trials: 80, HorizonYears: 50, Alpha: 0.3}))
		}()
		if i == 0 {
			time.Sleep(60 * time.Millisecond)
		}
	}
	wg.Wait()
	for _, w := range ws {
		w.delay.Store(0)
	}

	// A request owned by w0 while w0 fails requests: ejection and a
	// retry on w1; w0 still answers its probe, so it is re-admitted.
	var victim estReq
	for a := 1; a <= 64 && victim.Alpha == 0; a++ {
		req := estReq{Trials: 70, HorizonYears: 50, Alpha: float64(a) / 100}
		resp := post(t, ts.URL+"/estimate", req)
		if resp.Header.Get("X-Ltsimr-Node") == "w0" {
			victim = req
		}
		slurp(t, resp)
	}
	if victim.Alpha == 0 {
		t.Fatal("no request routed to w0")
	}
	tr.broken.Store(true)
	resp := post(t, ts.URL+"/estimate", victim)
	if got := resp.Header.Get("X-Ltsimr-Node"); resp.StatusCode != http.StatusOK || got != "w1" {
		t.Fatalf("request during w0 failure: status %d from %q, want 200 from w1", resp.StatusCode, got)
	}
	slurp(t, resp)
	tr.broken.Store(false)
	w0, _ := rt.Ring().NodeByName("w0")
	deadline := time.Now().Add(3 * time.Second)
	for !w0.Healthy() {
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for the probe to re-admit w0")
		}
		time.Sleep(10 * time.Millisecond)
	}

	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var snap StatsSnapshot
	if err := json.Unmarshal(slurp(t, resp), &snap); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text := string(slurp(t, resp))

	for _, c := range []struct {
		series string
		stats  uint64
	}{
		{"ltsimr_requests_total", snap.Routed},
		{"ltsimr_coalesced_total", snap.Coalesced},
		{"ltsimr_retries_total", snap.Retries},
		{"ltsimr_ejections_total", snap.Ejections},
		{"ltsimr_readmissions_total", snap.Readmissions},
	} {
		if got := seriesSum(t, text, c.series); got != c.stats {
			t.Errorf("%s = %d, /stats says %d", c.series, got, c.stats)
		}
		if c.stats == 0 {
			t.Errorf("%s: the traffic produced no events, so the check compared zeros", c.series)
		}
	}
}
