package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service"
	"repro/internal/telemetry"
)

// Config sizes a Router.
type Config struct {
	// Workers are the ltsimd base URLs the ring hashes over. Names
	// default to the URL stripped of its scheme.
	Workers []Worker
	// VNodes is the virtual-node count per worker; 0 means 64.
	VNodes int
	// LoadFactor is the bounded-load ceiling multiplier; 0 means 1.25.
	LoadFactor float64
	// ProbeInterval paces the health prober; 0 means 2s. ProbeTimeout
	// bounds one probe; 0 means 1s.
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// Client performs upstream requests; nil uses a default with no
	// overall timeout (sweep responses stream for as long as the
	// simulations take; per-probe timeouts are separate).
	Client *http.Client
	// Logger receives lifecycle events (ejections, re-admissions); nil
	// discards.
	Logger *slog.Logger
}

// Worker names one ltsimd instance.
type Worker struct {
	Name string
	URL  string
}

func (c Config) withDefaults() Config {
	if c.VNodes <= 0 {
		c.VNodes = 64
	}
	if c.LoadFactor <= 0 {
		c.LoadFactor = 1.25
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	return c
}

// upstream is one worker response, buffered for replay to coalesced
// waiters.
type upstream struct {
	node   string
	status int
	cache  string // the worker's X-Ltsimd-Cache disposition
	key    string // the worker's X-Ltsimd-Key (its cache key, policy folded in)
	body   []byte
}

// Router is the stateless cluster front. Create with New, serve
// Handler, stop with Close.
type Router struct {
	cfg    Config
	ring   *Ring
	mux    *http.ServeMux
	client *http.Client
	logger *slog.Logger
	start  time.Time

	// flights coalesces duplicate in-flight keys before dispatch — the
	// router half of cluster-wide single-flight (the worker's shard
	// scheduler is the other half, for duplicates that slip past the
	// router, e.g. from clients hitting workers directly).
	flights service.Flight[*upstream]
	// memo maps /estimate bodies to their routing keys, so a repeated
	// body is neither decoded nor fingerprinted again. A routing key is
	// the request's own Fingerprint, with no worker policy folded in.
	memo *service.KeyMemo

	probeStop context.CancelFunc
	probeDone chan struct{}
	// The router's event counts, the only copy: /stats and /metrics
	// both read them. Per-node dispatches live on Node.
	coalesced atomic.Uint64
	retries   atomic.Uint64
	ejections atomic.Uint64
	readmits  atomic.Uint64
}

// New builds a started router (its health prober is running).
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	nodes := make([]*Node, 0, len(cfg.Workers))
	for _, w := range cfg.Workers {
		url := strings.TrimSuffix(w.URL, "/")
		if url == "" {
			return nil, errors.New("router: worker URL must not be empty")
		}
		name := w.Name
		if name == "" {
			name = strings.TrimPrefix(strings.TrimPrefix(url, "http://"), "https://")
		}
		nodes = append(nodes, &Node{Name: name, URL: url})
	}
	ring, err := NewRing(nodes, cfg.VNodes, cfg.LoadFactor)
	if err != nil {
		return nil, err
	}
	reg := telemetry.NewRegistry()
	r := &Router{
		cfg:       cfg,
		ring:      ring,
		mux:       http.NewServeMux(),
		client:    cfg.Client,
		logger:    cfg.Logger,
		start:     time.Now(),
		probeDone: make(chan struct{}),
		memo:      service.NewKeyMemo(memoBodies),
	}
	reg.CounterFunc("ltsimr_coalesced_total",
		"Requests that joined an in-flight duplicate at the router instead of dispatching.", r.coalesced.Load)
	reg.CounterFunc("ltsimr_retries_total",
		"Dispatches retried on a successor node after a worker failed mid-request.", r.retries.Load)
	reg.CounterFunc("ltsimr_ejections_total",
		"Workers ejected from the ring (probe failure or request-time death).", r.ejections.Load)
	reg.CounterFunc("ltsimr_readmissions_total",
		"Ejected workers re-admitted by a succeeding health probe.", r.readmits.Load)
	reg.GaugeFunc("ltsimr_nodes_healthy", "Workers currently admitted to the ring.", func() float64 {
		return float64(r.ring.HealthyCount())
	})
	reg.GaugeFunc("ltsimr_nodes_total", "Workers configured in the ring.", func() float64 {
		return float64(len(r.ring.Nodes()))
	})
	reg.GaugeFunc("ltsimr_uptime_seconds", "Seconds since the router started.", func() float64 {
		return time.Since(r.start).Seconds()
	})
	requests := reg.CounterVec("ltsimr_requests_total", "Upstream requests dispatched, by worker.", "node")
	inflight := reg.GaugeVec("ltsimr_node_inflight", "In-flight upstream requests per worker.", "node")
	for _, n := range ring.Nodes() {
		requests.Func(n.routed.Load, n.Name)
		inflight.Func(func() float64 { return float64(n.Inflight()) }, n.Name)
	}

	r.mux.HandleFunc("POST /estimate", r.handleEstimate)
	r.mux.HandleFunc("POST /sweep", r.handleSweep)
	r.mux.HandleFunc("GET /healthz", r.handleHealthz)
	r.mux.HandleFunc("GET /stats", r.handleStats)
	r.mux.Handle("GET /metrics", reg.Handler())

	probeCtx, cancel := context.WithCancel(context.Background())
	r.probeStop = cancel
	go r.probe(probeCtx)
	return r, nil
}

// Handler returns the HTTP surface.
func (r *Router) Handler() http.Handler { return r.mux }

// Ring exposes the ring for stats and tests.
func (r *Router) Ring() *Ring { return r.ring }

// Close stops the health prober.
func (r *Router) Close() {
	r.probeStop()
	<-r.probeDone
}

// probe is the health loop: a failing /healthz ejects a worker from the
// ring, a succeeding one re-admits it. An ejected worker keeps its ring
// positions, so re-admission restores the same key ownership (and the
// warm cache behind it).
func (r *Router) probe(ctx context.Context) {
	defer close(r.probeDone)
	tick := time.NewTicker(r.cfg.ProbeInterval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		for _, n := range r.ring.Nodes() {
			ok := r.probeOnce(ctx, n)
			switch {
			case ok && n.setHealthy(true):
				r.readmits.Add(1)
				r.logger.Info("worker re-admitted", "node", n.Name, "url", n.URL)
			case !ok && n.setHealthy(false):
				r.ejections.Add(1)
				r.logger.Warn("worker ejected by health probe", "node", n.Name, "url", n.URL)
			}
		}
	}
}

// probeOnce asks one worker's /healthz.
func (r *Router) probeOnce(ctx context.Context, n *Node) bool {
	ctx, cancel := context.WithTimeout(ctx, r.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.URL+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// memoBodies bounds the /estimate body memo; it matches ltsimd's
// default result cache size.
const memoBodies = 1024

// forward posts body to the worker owning key and hands the response
// to use, retrying on the ring successor when a worker dies mid-request
// (transport error, or use failing to read the body ⇒ immediate
// ejection; the prober re-admits it when it recovers). HTTP error
// statuses are the worker *answering* — backpressure 503s and 4xxs pass
// through untouched for the client's own retry policy.
func (r *Router) forward(ctx context.Context, key string, body []byte, use func(*Node, *http.Response) error) error {
	var exclude []string
	for {
		node, err := r.ring.Pick(key, exclude...)
		if err != nil {
			return err
		}
		node.acquire()
		node.routed.Add(1)
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, node.URL+"/estimate", bytes.NewReader(body))
		if err != nil {
			node.release()
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := r.client.Do(req)
		if err == nil {
			err = use(node, resp)
			resp.Body.Close()
		}
		node.release()
		if err == nil {
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		// The worker died under us: eject it and retry on the ring
		// successor, which recomputes (or disk-replays) deterministically,
		// so the retried answer is the same bytes the dead worker would
		// have sent.
		if node.setHealthy(false) {
			r.ejections.Add(1)
			r.logger.Warn("worker ejected on request failure", "node", node.Name, "err", err.Error())
		}
		exclude = append(exclude, node.Name)
		r.retries.Add(1)
	}
}

// estimateOnce runs one non-progress estimate through the cluster-wide
// flight table: the first caller for a key starts a dispatch that
// buffers the worker's response, and duplicates join it and replay it.
// The dispatch belongs to the key: it runs detached from the starting
// caller's cancellation, so a caller that leaves ends only its own wait.
func (r *Router) estimateOnce(ctx context.Context, key string, body []byte) (*upstream, bool, error) {
	c, joined, err := r.flights.Join(ctx, key, func(c *service.Call[*upstream]) error {
		go func() {
			var res *upstream
			err := r.forward(context.WithoutCancel(ctx), key, body, func(node *Node, resp *http.Response) error {
				payload, err := io.ReadAll(resp.Body)
				if err != nil {
					return err
				}
				res = &upstream{
					node:   node.Name,
					status: resp.StatusCode,
					cache:  resp.Header.Get("X-Ltsimd-Cache"),
					key:    resp.Header.Get("X-Ltsimd-Key"),
					body:   payload,
				}
				return nil
			})
			r.flights.Finish(c, res, err)
		}()
		return nil
	})
	if err != nil {
		return nil, false, err
	}
	if joined {
		r.coalesced.Add(1)
	}
	res, err := c.Wait(ctx)
	return res, joined, err
}

// handleEstimate proxies one estimate to the worker owning its
// fingerprint. Duplicate in-flight keys coalesce at the router before
// dispatch (one upstream request, everyone replays its bytes, the
// followers marked X-Ltsimd-Cache: dedup). Progress-streamed requests
// are routed by the same key but proxied straight through — a stream
// cannot be buffered for replay.
func (r *Router) handleEstimate(w http.ResponseWriter, req *http.Request) {
	body, err := service.ReadBody(w, req)
	if err != nil {
		service.WriteError(w, service.RequestStatus(err), err)
		return
	}
	key, progress, err := r.memo.Key(body, service.EstimateRequest.Fingerprint)
	if err != nil {
		service.WriteError(w, http.StatusBadRequest, err)
		return
	}
	if progress {
		r.proxyStream(w, req.Context(), key, body)
		return
	}
	res, joined, err := r.estimateOnce(req.Context(), key, body)
	if err != nil {
		service.WriteError(w, upstreamStatus(err), err)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("X-Ltsimr-Node", res.node)
	if res.key != "" {
		h.Set("X-Ltsimd-Key", res.key)
	}
	disp := res.cache
	if joined {
		disp = "dedup"
	}
	if disp != "" {
		h.Set("X-Ltsimd-Cache", disp)
	}
	w.WriteHeader(res.status)
	w.Write(res.body)
}

// upstreamStatus maps a dispatch error onto a response status.
func upstreamStatus(err error) int {
	switch {
	case errors.Is(err, ErrNoHealthyNodes):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	default:
		return http.StatusBadGateway
	}
}

// proxyStream forwards a progress-streamed estimate and relays the
// NDJSON frames as they arrive. Worker death before the response starts
// retries on the successor; after frames have flowed the stream just
// ends (the client re-requests and hits the successor's cache).
func (r *Router) proxyStream(w http.ResponseWriter, ctx context.Context, key string, body []byte) {
	err := r.forward(ctx, key, body, func(node *Node, resp *http.Response) error {
		h := w.Header()
		for _, name := range []string{"Content-Type", "X-Ltsimd-Key", "X-Ltsimd-Cache"} {
			if v := resp.Header.Get(name); v != "" {
				h.Set(name, v)
			}
		}
		h.Set("X-Ltsimr-Node", node.Name)
		w.WriteHeader(resp.StatusCode)
		io.Copy(service.FlushWriter{ResponseWriter: w}, resp.Body)
		return nil
	})
	if err != nil && ctx.Err() == nil {
		service.WriteError(w, upstreamStatus(err), err)
	}
}

// handleSweep fans a batch across the cluster: scenario documents are
// expanded once here, and each unique routing key dispatches to the
// worker that owns it (joining any in-flight duplicate cluster-wide),
// loadFloor points per worker at a time. Lines carry node attribution.
func (r *Router) handleSweep(w http.ResponseWriter, req *http.Request) {
	service.Sweep[[]byte]{
		Pool: loadFloor * len(r.ring.Nodes()),
		Resolve: func(er service.EstimateRequest) (string, []byte, error) {
			key, err := er.Fingerprint()
			if err != nil {
				return "", nil, err
			}
			body, err := json.Marshal(er)
			return key, body, err
		},
		Run: func(ctx context.Context, key string, job func() ([]byte, error)) (service.SweepLine, string, error) {
			body, err := job()
			if err != nil {
				return service.SweepLine{}, "", err
			}
			res, _, err := r.estimateOnce(ctx, key, body)
			if err == nil && res.status != http.StatusOK {
				err = fmt.Errorf("worker %s returned %d: %s", res.node, res.status, strings.TrimSpace(string(res.body)))
			}
			if err != nil {
				return service.SweepLine{}, "", err
			}
			// Worker bytes are the one result that enters from outside the
			// process: compact them as Sweep requires, and refuse a body
			// that is not JSON.
			result, err := json.Marshal(json.RawMessage(res.body))
			if err != nil {
				return service.SweepLine{}, "", fmt.Errorf("worker %s returned a body that is not JSON: %w", res.node, err)
			}
			return service.SweepLine{Key: res.key, Result: result, Node: res.node}, res.cache, nil
		},
	}.ServeHTTP(w, req)
}

// NodeHealth is one worker's row in the aggregated /healthz.
type NodeHealth struct {
	Name    string `json:"name"`
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
}

// handleHealthz aggregates worker health: "ok" when every worker is
// admitted, "degraded" (still 200 — the cluster serves) while at least
// one is, and 503 "down" when the ring is empty.
func (r *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	nodes := make([]NodeHealth, 0, len(r.ring.Nodes()))
	healthy := 0
	for _, n := range r.ring.Nodes() {
		ok := n.Healthy()
		if ok {
			healthy++
		}
		nodes = append(nodes, NodeHealth{Name: n.Name, URL: n.URL, Healthy: ok})
	}
	status := "ok"
	code := http.StatusOK
	switch {
	case healthy == 0:
		status, code = "down", http.StatusServiceUnavailable
	case healthy < len(nodes):
		status = "degraded"
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]any{
		"status":         status,
		"uptime_seconds": time.Since(r.start).Seconds(),
		"nodes":          nodes,
	})
}

// NodeStats is one worker's row in the aggregated /stats: its health,
// the router's view of its load, and the worker's own /stats payload
// (raw, so new worker fields pass through untouched).
type NodeStats struct {
	Name     string          `json:"name"`
	URL      string          `json:"url"`
	Healthy  bool            `json:"healthy"`
	Inflight int64           `json:"inflight"`
	Error    string          `json:"error,omitempty"`
	Stats    json.RawMessage `json:"stats,omitempty"`
}

// StatsSnapshot is the router's /stats payload: cluster-wide cache
// warmth (the aggregated hit rate over every tier of every node) plus
// per-node attribution.
type StatsSnapshot struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Nodes         int     `json:"nodes"`
	HealthyNodes  int     `json:"healthy_nodes"`
	Routed        uint64  `json:"routed"`
	Coalesced     uint64  `json:"coalesced"`
	Retries       uint64  `json:"retries"`
	Ejections     uint64  `json:"ejections"`
	Readmissions  uint64  `json:"readmissions"`
	// ClusterHits/ClusterMisses aggregate the workers' memory-tier
	// counters; ClusterHitRate is their ratio — the cluster cache warmth
	// that sets sweep throughput.
	ClusterHits    uint64      `json:"cluster_hits"`
	ClusterMisses  uint64      `json:"cluster_misses"`
	ClusterHitRate float64     `json:"cluster_hit_rate"`
	PerNode        []NodeStats `json:"per_node"`
}

// handleStats fans /stats across the workers and aggregates.
func (r *Router) handleStats(w http.ResponseWriter, req *http.Request) {
	nodes := r.ring.Nodes()
	rows := make([]NodeStats, len(nodes))
	var wg sync.WaitGroup
	for i, n := range nodes {
		wg.Add(1)
		go func(i int, n *Node) {
			defer wg.Done()
			row := NodeStats{Name: n.Name, URL: n.URL, Healthy: n.Healthy(), Inflight: n.Inflight()}
			ctx, cancel := context.WithTimeout(req.Context(), r.cfg.ProbeTimeout)
			defer cancel()
			sreq, err := http.NewRequestWithContext(ctx, http.MethodGet, n.URL+"/stats", nil)
			if err == nil {
				var resp *http.Response
				if resp, err = r.client.Do(sreq); err == nil {
					body, rerr := io.ReadAll(resp.Body)
					resp.Body.Close()
					if rerr != nil {
						err = rerr
					} else if resp.StatusCode != http.StatusOK {
						err = fmt.Errorf("status %d", resp.StatusCode)
					} else {
						row.Stats = body
					}
				}
			}
			if err != nil {
				row.Error = err.Error()
			}
			rows[i] = row
		}(i, n)
	}
	wg.Wait()

	snap := StatsSnapshot{
		UptimeSeconds: time.Since(r.start).Seconds(),
		Nodes:         len(nodes),
		HealthyNodes:  r.ring.HealthyCount(),
		Coalesced:     r.coalesced.Load(),
		Retries:       r.retries.Load(),
		Ejections:     r.ejections.Load(),
		Readmissions:  r.readmits.Load(),
		PerNode:       rows,
	}
	for _, n := range nodes {
		snap.Routed += n.routed.Load()
	}
	for _, row := range rows {
		if row.Stats == nil {
			continue
		}
		var ws service.StatsSnapshot
		if err := json.Unmarshal(row.Stats, &ws); err == nil {
			snap.ClusterHits += ws.Cache.Hits
			snap.ClusterMisses += ws.Cache.Misses
		}
	}
	if total := snap.ClusterHits + snap.ClusterMisses; total > 0 {
		snap.ClusterHitRate = float64(snap.ClusterHits) / float64(total)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(snap)
}
