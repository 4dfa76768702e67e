package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/store"
)

// memoized reports whether m answers body without resolving it.
func memoized(m *KeyMemo, body []byte) bool {
	_, _, err := m.Key(body, func(EstimateRequest) (string, error) {
		return "", errors.New("resolved")
	})
	return err == nil
}

// memoLen counts the distinct bodies m remembers.
func memoLen(m *KeyMemo) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := len(m.cur)
	for sum := range m.old {
		if _, ok := m.cur[sum]; !ok {
			n++
		}
	}
	return n
}

// The memo holds at most its capacity, and a body in use survives the
// rotations that drop the rest.
func TestKeyMemoBounded(t *testing.T) {
	m := NewKeyMemo(8)
	resolve := func(req EstimateRequest) (string, error) { return fmt.Sprint(req.Trials), nil }
	hot := []byte(`{"trials":1}`)
	for i := 2; i < 200; i++ {
		if _, _, err := m.Key([]byte(fmt.Sprintf(`{"trials":%d}`, i)), resolve); err != nil {
			t.Fatal(err)
		}
		if key, _, err := m.Key(hot, resolve); err != nil || key != "1" {
			t.Fatalf("hot body resolved to %q, %v", key, err)
		}
		if n := memoLen(m); n > 8 {
			t.Fatalf("memo holds %d bodies, capacity 8", n)
		}
	}
	if !memoized(m, hot) {
		t.Error("a body used on every request was dropped")
	}
	if memoized(m, []byte(`{"trials":2}`)) {
		t.Error("the oldest body is still remembered after 198 newer ones")
	}
}

// Concurrent callers over overlapping bodies, through rotations, each
// get their own body's key.
func TestKeyMemoConcurrent(t *testing.T) {
	m := NewKeyMemo(4)
	resolve := func(req EstimateRequest) (string, error) { return fmt.Sprint(req.Trials), nil }
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 500 {
				n := (i*7 + g) % 10
				key, _, err := m.Key([]byte(fmt.Sprintf(`{"trials":%d}`, n)), resolve)
				if err != nil || key != fmt.Sprint(n) {
					t.Errorf("body %d resolved to %q, %v", n, key, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := memoLen(m); n > 4 {
		t.Errorf("memo holds %d bodies, capacity 4", n)
	}
}

// memoBodies are /estimate bodies that resolve, with the variants a
// client can send for one request: field order, whitespace and trailing
// bytes change the body but not the key, and policy rewrites some.
var memoBodies = []string{
	`{"trials":120,"horizon_years":50,"seed":7}`,
	`{"seed":7,"horizon_years":50,"trials":120}`,
	"{\"trials\":120,\"horizon_years\":50,\"seed\":7}\n\n",
	`{"trials":120,"horizon_years":50,"seed":7} trailing`,
	`{"trials":100,"horizon_years":50,"replicas":3,"alpha":0.5,"scrubs_per_year":4}`,
	`{"trials":100,"horizon_years":40,"fleet":[{"tier":"consumer"},{"tier":"enterprise"}]}`,
	`{"trials":5000,"horizon_years":50,"seed":3}`,
	`{"horizon_years":50,"seed":4,"target_rel_width":0.5}`,
}

// A memo-warm daemon answers every body exactly as a daemon that
// resolves every body cold does, request for request: the same status,
// bytes, X-Ltsimd-Key and X-Ltsimd-Cache, and in the end the same cache
// counters.
func TestBodyMemoChangesNoAnswer(t *testing.T) {
	cfg := Config{CacheSize: 256, Shards: 2, QueueDepth: 32, JobTimeout: time.Minute, SimParallel: 2, MaxTrialsCap: 2000}
	warm, cold := New(cfg), New(cfg)
	t.Cleanup(func() {
		warm.Shutdown(context.Background())
		cold.Shutdown(context.Background())
	})
	serve := func(svc *Service, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/estimate", strings.NewReader(body)))
		return rec
	}
	for round := range 3 {
		for _, body := range memoBodies {
			if round > 0 && !memoized(warm.memo, []byte(body)) {
				t.Fatalf("round %d: %s is not memoized", round, body)
			}
			cold.memo = NewKeyMemo(cfg.CacheSize) // every request resolves from scratch
			w, c := serve(warm, body), serve(cold, body)
			if w.Code != http.StatusOK || w.Code != c.Code {
				t.Fatalf("round %d %s: status %d memo, %d cold", round, body, w.Code, c.Code)
			}
			for _, h := range []string{"X-Ltsimd-Key", "X-Ltsimd-Cache", "Content-Type"} {
				if w.Header().Get(h) != c.Header().Get(h) {
					t.Errorf("round %d %s: %s %q memo, %q cold", round, body, h, w.Header().Get(h), c.Header().Get(h))
				}
			}
			if w.Body.String() != c.Body.String() {
				t.Errorf("round %d %s: bodies differ", round, body)
			}
		}
	}
	if w, c := warm.Stats().Cache, cold.Stats().Cache; w != c {
		t.Errorf("cache counters differ: memo %+v, cold %+v", w, c)
	}
	if w, c := warm.Stats().Scheduler.Completed, cold.Stats().Scheduler.Completed; w != c {
		t.Errorf("scheduled runs differ: memo %d, cold %d", w, c)
	}
}

// Bodies that fail stay failures with the same message, and the memo
// never remembers them.
func TestBodyMemoSkipsBadRequests(t *testing.T) {
	svc, ts := newTestService(t)
	for _, body := range []string{
		``,
		`{"trials":`,
		`{"trials":100,"bogus":1}`,
		`{"trials":100,"alpha":2}`,
		`{"trials":100,"replicas":100000000000}`,
		`{"trials":100,"horizon_years":50,"bias":-1,"hazard":{"kind":"weibull","shape":2,"scale_hours":1e5}}`,
		`{"trials":1}`,
		`{"trials":100,"level":1.5}`,
		`{"trials":100,"bias":-1}`,
		`{"target_rel_width":-0.1}`,
		`{"target_rel_width":0.1,"max_trials":1}`,
	} {
		var first string
		for i := range 2 {
			resp, err := http.Post(ts.URL+"/estimate", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			got := string(readAll(t, resp))
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("%q attempt %d: status %d (%s), want 400", body, i, resp.StatusCode, got)
			}
			if i == 1 && got != first {
				t.Errorf("%q: error changed from %s to %s", body, first, got)
			}
			first = got
		}
		if memoized(svc.memo, []byte(body)) {
			t.Errorf("%q was memoized", body)
		}
	}
	if n := memoLen(svc.memo); n != 0 {
		t.Errorf("memo holds %d bodies after only bad requests", n)
	}
	// A body that cannot run is refused before it is scheduled.
	if st := svc.sched.Stats(); st.Completed+st.Failed != 0 {
		t.Errorf("bad requests ran %d scheduler jobs (%d failed), want none", st.Completed+st.Failed, st.Failed)
	}
}

// A memoized progress body whose key left the cache still streams: the
// job resolves the body again and hands its batch snapshots to the
// request, and a cached key replays as a lone final frame.
func TestBodyMemoProgressStillStreams(t *testing.T) {
	svc := New(Config{CacheSize: 1, Shards: 1, QueueDepth: 8, JobTimeout: time.Minute, SimParallel: 2})
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Shutdown(context.Background())
	})
	seed, other := uint64(11), uint64(12)
	req := EstimateRequest{Trials: 600, HorizonYears: 50, Seed: &seed, Progress: true}
	first, _ := streamFrames(t, ts.URL, req)
	// Another key evicts the progress run's entry (the cache holds one)
	// but not its body from the memo (which holds two).
	readAll(t, postJSON(t, ts.URL+"/estimate", EstimateRequest{Trials: 100, HorizonYears: 50, Seed: &other}))

	if body, err := json.Marshal(req); err != nil || !memoized(svc.memo, body) {
		t.Fatalf("the progress body left the memo (%v)", err)
	}

	again, ct := streamFrames(t, ts.URL, req)
	if ct != "application/x-ndjson" {
		t.Errorf("content type %q, want application/x-ndjson", ct)
	}
	if len(again) < 2 || again[0].Progress == nil {
		t.Fatalf("memoized progress body on a cache miss sent %d frames, want progress frames before the final one", len(again))
	}
	final, want := again[len(again)-1], first[len(first)-1]
	if !final.Final || final.Cache != "miss" || final.Key != want.Key || string(final.Result) != string(want.Result) {
		t.Errorf("final frame %+v, want a miss replaying %+v", final, want)
	}

	hit, _ := streamFrames(t, ts.URL, req)
	if len(hit) != 1 || !hit[0].Final || hit[0].Cache != "hit" || string(hit[0].Result) != string(want.Result) {
		t.Errorf("cached progress body answered %+v, want one final hit frame", hit)
	}
}

// A memo hit whose key was evicted from both tiers takes the one route a
// cold request takes: exactly one cache miss, exactly one scheduler job,
// and the same bytes as the first answer.
func TestBodyMemoHitAfterEvictionRunsOneJob(t *testing.T) {
	ds, err := store.OpenDisk(t.TempDir(), 1) // keeps only the newest entry
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Config{CacheSize: 1, Shards: 1, QueueDepth: 8, JobTimeout: time.Minute, SimParallel: 2, Store: ds})
	t.Cleanup(func() { svc.Shutdown(context.Background()) })
	serve := func(body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/estimate", strings.NewReader(body)))
		return rec
	}
	a, b := `{"trials":100,"horizon_years":50,"seed":21}`, `{"trials":100,"horizon_years":50,"seed":22}`
	first := serve(a)
	serve(b) // evicts a's key from memory and disk
	if !memoized(svc.memo, []byte(a)) {
		t.Fatal("the first body left the memo")
	}
	before := svc.Stats()
	rec := serve(a)
	after := svc.Stats()
	if got := rec.Header().Get("X-Ltsimd-Cache"); got != "miss" {
		t.Errorf("X-Ltsimd-Cache %q, want miss", got)
	}
	if rec.Body.String() != first.Body.String() || rec.Header().Get("X-Ltsimd-Key") != first.Header().Get("X-Ltsimd-Key") {
		t.Error("the re-run answered different bytes or a different key")
	}
	if d := after.Cache.Misses - before.Cache.Misses; d != 1 {
		t.Errorf("%d cache misses, want 1", d)
	}
	if d := after.Cache.Hits - before.Cache.Hits; d != 0 {
		t.Errorf("%d cache hits, want 0", d)
	}
	if d := after.Scheduler.Completed - before.Scheduler.Completed; d != 1 {
		t.Errorf("%d scheduler jobs, want 1", d)
	}
}

// A warm /estimate hit through the full handler, counting httptest's
// request and recorder, allocates at most half of the 120 it took when
// every hit decoded, built and fingerprinted its body and built a log
// record for a discarding logger.
func TestEstimateWarmHitAllocs(t *testing.T) {
	svc, _ := newTestService(t)
	h := svc.Handler()
	const body = `{"trials":200,"horizon_years":50,"replicas":3,"scrubs_per_year":4,"alpha":0.5,"seed":9}`
	serve := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/estimate", strings.NewReader(body)))
		return rec
	}
	if rec := serve(); rec.Code != http.StatusOK {
		t.Fatalf("warm-up: %d %s", rec.Code, rec.Body)
	}
	if got := serve().Header().Get("X-Ltsimd-Cache"); got != "hit" {
		t.Fatalf("X-Ltsimd-Cache %q, want hit", got)
	}
	allocs := testing.AllocsPerRun(200, func() { serve() })
	t.Logf("%.0f allocs per warm hit", allocs)
	if allocs > 28 {
		t.Errorf("%.0f allocs per warm hit, want at most 28", allocs)
	}
}

// hitHarness drives a handler with one reused ResponseWriter and one
// reused request whose body is rewound, so it allocates nothing itself:
// whatever a call allocates, the handler does.
type hitHarness struct {
	h    http.Handler
	req  *http.Request
	body *bytes.Reader
	w    reusedWriter
}

// reusedWriter is a ResponseWriter whose header map and body are
// cleared, not replaced, between requests.
type reusedWriter struct {
	header http.Header
	status int
	body   []byte
}

func (w *reusedWriter) Header() http.Header { return w.header }

func (w *reusedWriter) Write(p []byte) (int, error) {
	w.body = append(w.body, p...)
	return len(p), nil
}

func (w *reusedWriter) WriteHeader(code int) { w.status = code }

func newHitHarness(h http.Handler, body string) *hitHarness {
	hh := &hitHarness{h: h, body: bytes.NewReader([]byte(body)), w: reusedWriter{header: http.Header{}}}
	hh.req = httptest.NewRequest(http.MethodPost, "/estimate", hh.body)
	return hh
}

// serve answers the request once.
func (hh *hitHarness) serve() {
	clear(hh.w.header)
	hh.w.status, hh.w.body = http.StatusOK, hh.w.body[:0]
	hh.body.Seek(0, io.SeekStart)
	hh.h.ServeHTTP(&hh.w, hh.req)
}

// warmHit returns a harness whose request is a warm memory hit: served
// once cold and once more as a hit with the cold answer's bytes.
func warmHit(tb testing.TB) *hitHarness {
	tb.Helper()
	svc := New(Config{CacheSize: 256, Shards: 2, QueueDepth: 32, JobTimeout: time.Minute, SimParallel: 2})
	tb.Cleanup(func() { svc.Shutdown(context.Background()) })
	hh := newHitHarness(svc.Handler(), `{"trials":200,"horizon_years":50,"replicas":3,"scrubs_per_year":4,"alpha":0.5,"seed":9}`)
	hh.serve()
	if hh.w.status != http.StatusOK || hh.w.header.Get("X-Ltsimd-Cache") != "miss" {
		tb.Fatalf("cold: %d %q %s", hh.w.status, hh.w.header.Get("X-Ltsimd-Cache"), hh.w.body)
	}
	cold := bytes.Clone(hh.w.body)
	hh.serve()
	if got := hh.w.header.Get("X-Ltsimd-Cache"); got != "hit" || !bytes.Equal(hh.w.body, cold) {
		tb.Fatalf("warm: X-Ltsimd-Cache %q, same bytes %t; want hit with the cold bytes", got, bytes.Equal(hh.w.body, cold))
	}
	return hh
}

// A warm memory hit, counting only the daemon's allocations, allocates
// at most 6 times: it measured 5, where a separately allocated recorder,
// trace, context and header value slices, growing mark slices, a fresh
// body buffer and a job built for every hit took 21.
func TestEstimateWarmHitDaemonAllocs(t *testing.T) {
	hh := warmHit(t)
	allocs := testing.AllocsPerRun(200, hh.serve)
	t.Logf("%.0f daemon allocs per warm hit", allocs)
	if allocs > 6 {
		t.Errorf("%.0f daemon allocs per warm hit, want at most 6", allocs)
	}
}
