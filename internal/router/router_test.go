package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/store"
)

// worker is one real ltsimd service under the router in tests.
type worker struct {
	svc *service.Service
	ts  *httptest.Server
	// down simulates a sick-but-answering worker: /healthz returns 503
	// while set, everything else still serves.
	down atomic.Bool
	// delay stalls /estimate, widening the window duplicate requests
	// must coalesce in.
	delay atomic.Int64
	// stopped makes stop idempotent (Service.Shutdown is not).
	stopped atomic.Bool
}

// stop tears the worker down once; safe to call again (the test
// cleanup always does).
func (w *worker) stop() {
	if w.stopped.Swap(true) {
		return
	}
	w.ts.Close()
	w.svc.Shutdown(context.Background())
}

// startWorkers brings up n services, each with its own cache (and a
// disk store when dirs is non-nil).
func startWorkers(t *testing.T, n int, dirs []string) []*worker {
	t.Helper()
	ws := make([]*worker, n)
	for i := range ws {
		cfg := service.Config{CacheSize: 256, Shards: 2, QueueDepth: 64, JobTimeout: time.Minute, SimParallel: 2}
		if dirs != nil {
			ds, err := store.OpenDisk(dirs[i], 0)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Store = ds
		}
		w := &worker{svc: service.New(cfg)}
		inner := w.svc.Handler()
		w.ts = httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/healthz" && w.down.Load() {
				http.Error(rw, "sick", http.StatusServiceUnavailable)
				return
			}
			if r.URL.Path == "/estimate" {
				if d := w.delay.Load(); d > 0 {
					time.Sleep(time.Duration(d))
				}
			}
			inner.ServeHTTP(rw, r)
		}))
		ws[i] = w
		t.Cleanup(w.stop)
	}
	return ws
}

// startRouter fronts the workers with fast probes for test latency.
func startRouter(t *testing.T, ws []*worker) (*Router, *httptest.Server) {
	t.Helper()
	cfg := Config{
		ProbeInterval: 25 * time.Millisecond,
		ProbeTimeout:  500 * time.Millisecond,
	}
	for i, w := range ws {
		cfg.Workers = append(cfg.Workers, Worker{Name: fmt.Sprintf("w%d", i), URL: w.ts.URL})
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(func() {
		ts.Close()
		rt.Close()
	})
	return rt, ts
}

func post(t *testing.T, url string, body any) *http.Response {
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

func slurp(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// completedAcross sums scheduled (non-cache) runs over the cluster.
func completedAcross(ws []*worker) uint64 {
	var total uint64
	for _, w := range ws {
		total += w.svc.Stats().Scheduler.Completed
	}
	return total
}

type estReq struct {
	Trials       int     `json:"trials,omitempty"`
	HorizonYears float64 `json:"horizon_years,omitempty"`
	Replicas     int     `json:"replicas,omitempty"`
	Alpha        float64 `json:"alpha,omitempty"`
	Progress     bool    `json:"progress,omitempty"`
}

// TestRouterEstimateStickyAndWarm: repeats of one request land on one
// worker (X-Ltsimr-Node stable), the repeat is that worker's cache hit,
// and the bytes match — the router is transparent.
func TestRouterEstimateStickyAndWarm(t *testing.T) {
	ws := startWorkers(t, 3, nil)
	_, ts := startRouter(t, ws)

	req := estReq{Trials: 100, HorizonYears: 50}
	resp := post(t, ts.URL+"/estimate", req)
	node := resp.Header.Get("X-Ltsimr-Node")
	if node == "" {
		t.Fatal("response missing X-Ltsimr-Node attribution")
	}
	if got := resp.Header.Get("X-Ltsimd-Cache"); got != "miss" {
		t.Fatalf("cold request: cache = %q, want miss", got)
	}
	cold := slurp(t, resp)

	resp = post(t, ts.URL+"/estimate", req)
	if got := resp.Header.Get("X-Ltsimr-Node"); got != node {
		t.Fatalf("repeat routed to %s, first to %s — placement not sticky", got, node)
	}
	if got := resp.Header.Get("X-Ltsimd-Cache"); got != "hit" {
		t.Fatalf("repeat: cache = %q, want hit", got)
	}
	if warm := slurp(t, resp); !bytes.Equal(cold, warm) {
		t.Fatal("routed replay is not byte-identical")
	}
	if got := completedAcross(ws); got != 1 {
		t.Fatalf("cluster ran %d simulations for one unique request, want 1", got)
	}
}

// TestRouterClusterSingleFlight is the acceptance gate: N identical
// concurrent requests through the router produce exactly one scheduled
// run cluster-wide, with the duplicates coalescing at the router before
// dispatch.
func TestRouterClusterSingleFlight(t *testing.T) {
	ws := startWorkers(t, 2, nil)
	for _, w := range ws {
		w.delay.Store(int64(300 * time.Millisecond))
	}
	rt, ts := startRouter(t, ws)

	req := estReq{Trials: 120, HorizonYears: 50, Alpha: 0.2}
	const dupes = 8
	bodies := make([][]byte, dupes)
	var wg sync.WaitGroup
	launch := func(i int) {
		defer wg.Done()
		resp := post(t, ts.URL+"/estimate", req)
		bodies[i] = slurp(t, resp)
	}
	// The first request opens the flight; the rest arrive while the
	// worker is still stalled in the delay middleware.
	wg.Add(1)
	go launch(0)
	time.Sleep(100 * time.Millisecond)
	for i := 1; i < dupes; i++ {
		wg.Add(1)
		go launch(i)
	}
	wg.Wait()

	for i := 1; i < dupes; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("duplicate %d got different bytes than the flight owner", i)
		}
	}
	if got := completedAcross(ws); got != 1 {
		t.Fatalf("cluster scheduled %d runs for %d identical concurrent requests, want 1", got, dupes)
	}
	if got := rt.coalesced.Load(); got != dupes-1 {
		t.Fatalf("router coalesced %d requests, want %d", got, dupes-1)
	}
}

// TestRouterOwnerLeaves: a dispatch belongs to its key, not to the
// caller that started it. While the worker is stalled, the first
// caller's client disconnects; a caller that joined the flight still
// gets the worker's answer, marked dedup, with the same bytes a later
// request replays from the worker's cache.
func TestRouterOwnerLeaves(t *testing.T) {
	ws := startWorkers(t, 2, nil)
	for _, w := range ws {
		w.delay.Store(int64(600 * time.Millisecond))
	}
	rt, ts := startRouter(t, ws)
	body, err := json.Marshal(estReq{Trials: 120, HorizonYears: 50, Alpha: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	owner := make(chan error, 1)
	go func() {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/estimate", bytes.NewReader(body))
		if err == nil {
			var resp *http.Response
			if resp, err = http.DefaultClient.Do(req); err == nil {
				resp.Body.Close()
			}
		}
		owner <- err
	}()
	dispatched := func() bool {
		for _, n := range rt.Ring().Nodes() {
			if n.Inflight() > 0 {
				return true
			}
		}
		return false
	}
	for deadline := time.Now().Add(5 * time.Second); !dispatched(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the owner's request never reached a worker")
		}
	}
	type answer struct {
		resp *http.Response
		body []byte
		err  error
	}
	joined := make(chan answer, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/estimate", "application/json", bytes.NewReader(body))
		if err != nil {
			joined <- answer{err: err}
			return
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		joined <- answer{resp, b, err}
	}()
	// Give the second caller time to reach the router's flight table
	// while the worker is still stalled.
	time.Sleep(150 * time.Millisecond)
	cancel()
	if err := <-owner; err == nil {
		t.Fatal("the owner's request finished before its client left; the worker stall is too short")
	}

	got := <-joined
	if got.err != nil {
		t.Fatal(got.err)
	}
	if got.resp.StatusCode != http.StatusOK {
		t.Fatalf("joined caller: status %d (%s), want 200", got.resp.StatusCode, got.body)
	}
	if disp := got.resp.Header.Get("X-Ltsimd-Cache"); disp != "dedup" {
		t.Errorf("joined caller: X-Ltsimd-Cache %q, want dedup", disp)
	}
	later := post(t, ts.URL+"/estimate", estReq{Trials: 120, HorizonYears: 50, Alpha: 0.3})
	if disp := later.Header.Get("X-Ltsimd-Cache"); disp != "hit" {
		t.Errorf("later caller: X-Ltsimd-Cache %q, want hit", disp)
	}
	if replay := slurp(t, later); !bytes.Equal(replay, got.body) {
		t.Error("the joined caller's bytes differ from the cached answer")
	}
	if n := rt.coalesced.Load(); n != 1 {
		t.Errorf("router coalesced %d requests, want 1", n)
	}
	if n := completedAcross(ws); n != 1 {
		t.Errorf("cluster ran %d simulations for one key, want 1", n)
	}
}

// decodeSweep splits an NDJSON sweep body into point lines + summary.
func decodeSweep(t *testing.T, body []byte) ([]service.SweepLine, service.SweepLine) {
	t.Helper()
	var lines []service.SweepLine
	var summary service.SweepLine
	for _, raw := range bytes.Split(bytes.TrimSpace(body), []byte("\n")) {
		var line service.SweepLine
		if err := json.Unmarshal(raw, &line); err != nil {
			t.Fatalf("bad sweep line %q: %v", raw, err)
		}
		if line.Summary {
			summary = line
			continue
		}
		lines = append(lines, line)
	}
	if !summary.Summary {
		t.Fatalf("sweep body has no summary line: %s", body)
	}
	return lines, summary
}

// TestRouterSweepScenarioFanOut: a scenario document expands once at
// the router, points spread across workers with node attribution, the
// warm repeat is all cache hits cluster-wide, and in-batch duplicates
// dedupe before dispatch.
func TestRouterSweepScenarioFanOut(t *testing.T) {
	ws := startWorkers(t, 2, nil)
	_, ts := startRouter(t, ws)

	doc := map[string]any{
		"scenario": map[string]any{
			"v":    1,
			"base": map[string]any{"trials": 80, "horizon_years": 50},
			"grid": []map[string]any{{"param": "replicas", "values": []float64{1, 2, 3, 4, 5, 6}}},
		},
	}
	lines, sum := decodeSweep(t, slurp(t, post(t, ts.URL+"/sweep", doc)))
	if sum.Requested != 6 || sum.OK != 6 || sum.Errors != 0 {
		t.Fatalf("cold summary = %+v, want 6 requested, 6 ok", sum)
	}
	nodes := map[string]int{}
	byIndex := map[int][]byte{}
	for _, l := range lines {
		if l.Node == "" {
			t.Fatalf("sweep line %d has no node attribution", l.Index)
		}
		nodes[l.Node]++
		byIndex[l.Index] = l.Result
	}
	if len(byIndex) != 6 {
		t.Fatalf("got %d distinct indices, want 6", len(byIndex))
	}
	if len(nodes) < 2 {
		t.Logf("note: all 6 points hashed to one worker (%v) — legal, just unlucky", nodes)
	}

	warmLines, warmSum := decodeSweep(t, slurp(t, post(t, ts.URL+"/sweep", doc)))
	if warmSum.CacheHits != 6 {
		t.Fatalf("warm summary cache hits = %d, want 6 (cluster-wide warmth)", warmSum.CacheHits)
	}
	for _, l := range warmLines {
		if !bytes.Equal(l.Result, byIndex[l.Index]) {
			t.Fatalf("warm sweep point %d differs from cold run", l.Index)
		}
	}
	if got := completedAcross(ws); got != 6 {
		t.Fatalf("cluster scheduled %d runs over both sweeps, want 6", got)
	}

	// In-batch duplicates collapse at the router: 4 identical fresh
	// requests cost exactly one scheduled run cluster-wide.
	dupReq := map[string]any{"requests": []estReq{
		{Trials: 80, HorizonYears: 50, Alpha: 0.9},
		{Trials: 80, HorizonYears: 50, Alpha: 0.9},
		{Trials: 80, HorizonYears: 50, Alpha: 0.9},
		{Trials: 80, HorizonYears: 50, Alpha: 0.9},
	}}
	dupLines, dupSum := decodeSweep(t, slurp(t, post(t, ts.URL+"/sweep", dupReq)))
	if dupSum.Deduped != 3 || dupSum.OK != 4 {
		t.Fatalf("duplicate batch summary = %+v, want 4 ok with 3 deduped", dupSum)
	}
	for _, l := range dupLines {
		if !bytes.Equal(l.Result, dupLines[0].Result) {
			t.Fatalf("deduped index %d replayed different bytes", l.Index)
		}
	}
	if got := completedAcross(ws); got != 7 {
		t.Fatalf("cluster scheduled %d runs total, want 7 (the duplicate batch cost exactly 1)", got)
	}
}

// TestRouterWorkerDeathRetriesOnSuccessor: kill a worker outright (its
// listener closes) and a request for a key it owned transparently
// retries on the ring successor; /healthz reports the cluster degraded.
func TestRouterWorkerDeathRetriesOnSuccessor(t *testing.T) {
	ws := startWorkers(t, 2, nil)
	rt, ts := startRouter(t, ws)

	// Find a request owned by worker 0 so its death is on the request
	// path.
	var victim estReq
	for a := 1; a <= 64; a++ {
		req := estReq{Trials: 70, HorizonYears: 50, Alpha: float64(a) / 100}
		resp := post(t, ts.URL+"/estimate", req)
		node := resp.Header.Get("X-Ltsimr-Node")
		slurp(t, resp)
		if node == "w0" {
			victim = req
			break
		}
	}
	if victim.Alpha == 0 {
		t.Fatal("no probe request routed to w0")
	}

	ws[0].ts.Close() // worker dies: connection refused from here on

	resp := post(t, ts.URL+"/estimate", victim)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after worker death: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Ltsimr-Node"); got != "w1" {
		t.Fatalf("retried request served by %q, want successor w1", got)
	}
	slurp(t, resp)
	if rt.retries.Load() == 0 {
		t.Error("successor retry not counted")
	}
	if rt.ejections.Load() == 0 {
		t.Error("request-time death did not eject the worker")
	}

	hres, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status string `json:"status"`
		Nodes  []struct {
			Name    string `json:"name"`
			Healthy bool   `json:"healthy"`
		} `json:"nodes"`
	}
	if err := json.Unmarshal(slurp(t, hres), &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "degraded" {
		t.Fatalf("cluster health = %q with one dead worker, want degraded", health.Status)
	}
}

// TestRouterProbeEjectsAndReadmits: a worker whose /healthz sours is
// ejected by the prober and re-admitted when it recovers — without the
// router restarting or the ring being rebuilt.
func TestRouterProbeEjectsAndReadmits(t *testing.T) {
	ws := startWorkers(t, 2, nil)
	rt, _ := startRouter(t, ws)

	node, ok := rt.Ring().NodeByName("w0")
	if !ok {
		t.Fatal("w0 not in ring")
	}
	waitFor := func(cond func() bool, what string) {
		t.Helper()
		deadline := time.Now().Add(3 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	ws[0].down.Store(true)
	waitFor(func() bool { return !node.Healthy() }, "probe ejection")
	if rt.ejections.Load() == 0 {
		t.Error("ejection not counted")
	}

	ws[0].down.Store(false)
	waitFor(func() bool { return node.Healthy() }, "probe re-admission")
	if rt.readmits.Load() == 0 {
		t.Error("re-admission not counted")
	}
}

// TestRouterStatsAggregatesWarmth: /stats carries per-node rows with
// the workers' own snapshots plus the cluster-wide hit-rate rollup.
func TestRouterStatsAggregatesWarmth(t *testing.T) {
	ws := startWorkers(t, 2, nil)
	_, ts := startRouter(t, ws)

	req := estReq{Trials: 90, HorizonYears: 50}
	slurp(t, post(t, ts.URL+"/estimate", req))
	slurp(t, post(t, ts.URL+"/estimate", req)) // warm repeat

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var snap StatsSnapshot
	if err := json.Unmarshal(slurp(t, resp), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Nodes != 2 || snap.HealthyNodes != 2 {
		t.Fatalf("stats nodes = %d/%d healthy, want 2/2", snap.HealthyNodes, snap.Nodes)
	}
	if snap.ClusterHits != 1 {
		t.Fatalf("cluster hits = %d, want 1 (the warm repeat)", snap.ClusterHits)
	}
	if snap.ClusterHitRate <= 0 {
		t.Fatal("cluster hit rate not computed")
	}
	if len(snap.PerNode) != 2 {
		t.Fatalf("per-node rows = %d, want 2", len(snap.PerNode))
	}
	for _, row := range snap.PerNode {
		if row.Error != "" {
			t.Errorf("node %s stats errored: %s", row.Name, row.Error)
		}
		if len(row.Stats) == 0 {
			t.Errorf("node %s row carries no worker stats", row.Name)
		}
	}
}

// TestRouterMetricFamilies: the ltsimr_ families reach GET /metrics.
func TestRouterMetricFamilies(t *testing.T) {
	ws := startWorkers(t, 2, nil)
	_, ts := startRouter(t, ws)
	slurp(t, post(t, ts.URL+"/estimate", estReq{Trials: 60, HorizonYears: 50}))

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text := string(slurp(t, resp))
	for _, family := range []string{
		"ltsimr_requests_total", "ltsimr_coalesced_total",
		"ltsimr_retries_total", "ltsimr_ejections_total",
		"ltsimr_readmissions_total", "ltsimr_nodes_healthy",
		"ltsimr_nodes_total", "ltsimr_node_inflight",
	} {
		if !strings.Contains(text, family) {
			t.Errorf("/metrics missing family %q", family)
		}
	}
	if !strings.Contains(text, `ltsimr_nodes_healthy 2`) {
		t.Errorf("healthy-nodes gauge wrong:\n%s", text)
	}
}

// TestRouterDiskTierAcrossCluster: workers with disk stores replay
// bit-identical bytes through the router after every worker restarts —
// the cluster-level version of the restart-durability tentpole.
func TestRouterDiskTierAcrossCluster(t *testing.T) {
	dirs := []string{t.TempDir(), t.TempDir()}
	ws := startWorkers(t, 2, dirs)
	_, ts := startRouter(t, ws)

	reqs := []estReq{
		{Trials: 80, HorizonYears: 50},
		{Trials: 80, HorizonYears: 50, Replicas: 3},
		{Trials: 80, HorizonYears: 50, Alpha: 0.4},
	}
	cold := make([][]byte, len(reqs))
	for i, req := range reqs {
		cold[i] = slurp(t, post(t, ts.URL+"/estimate", req))
	}

	// "Restart" the whole cluster over the same directories.
	for _, w := range ws {
		w.stop()
	}
	ws2 := startWorkers(t, 2, dirs)
	_, ts2 := startRouter(t, ws2)

	for i, req := range reqs {
		resp := post(t, ts2.URL+"/estimate", req)
		if got := resp.Header.Get("X-Ltsimd-Cache"); got != "disk" {
			t.Fatalf("request %d after cluster restart: cache = %q, want disk", i, got)
		}
		if body := slurp(t, resp); !bytes.Equal(body, cold[i]) {
			t.Fatalf("request %d not bit-identical across cluster restart", i)
		}
	}
	if got := completedAcross(ws2); got != 0 {
		t.Fatalf("restarted cluster simulated %d jobs, want 0 (all disk replays)", got)
	}
}

// TestRouterProgressStreamProxied: a progress-streamed estimate flows
// through the router frame by frame with node attribution.
func TestRouterProgressStreamProxied(t *testing.T) {
	ws := startWorkers(t, 2, nil)
	_, ts := startRouter(t, ws)

	resp := post(t, ts.URL+"/estimate", estReq{Trials: 5000, HorizonYears: 50, Progress: true})
	if resp.Header.Get("X-Ltsimr-Node") == "" {
		t.Error("progress stream missing node attribution")
	}
	body := slurp(t, resp)
	frames := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
	if len(frames) < 2 {
		t.Fatalf("progress stream carried %d frames, want at least a progress frame and a final", len(frames))
	}
	var last map[string]any
	if err := json.Unmarshal(frames[len(frames)-1], &last); err != nil {
		t.Fatalf("final frame is not JSON: %v", err)
	}
}

// The dispatch runs under context.WithoutCancel, so a context.Canceled
// is the caller's hang-up (499); only a deadline is a gateway timeout.
func TestUpstreamStatus(t *testing.T) {
	for _, c := range []struct {
		err  error
		want int
	}{
		{fmt.Errorf("dispatch: %w", context.Canceled), service.StatusClientClosedRequest},
		{context.DeadlineExceeded, http.StatusGatewayTimeout},
		{ErrNoHealthyNodes, http.StatusServiceUnavailable},
		{io.ErrUnexpectedEOF, http.StatusBadGateway},
	} {
		if got := upstreamStatus(c.err); got != c.want {
			t.Errorf("upstreamStatus(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}
