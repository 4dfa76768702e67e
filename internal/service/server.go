package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// Service is the simulation service: canonical hashing in front of a
// content-addressed cache in front of a sharded scheduler. Create with
// New, serve Handler, stop with Shutdown.
type Service struct {
	cfg   Config
	cache *resultCache
	// diskStore is the persistent result tier under the memory LRU; nil
	// when the service runs memory-only (Config.Store unset).
	diskStore store.Store
	sched     *scheduler
	mux       *http.ServeMux
	start     time.Time
	// progressSem bounds concurrently-running progress-streamed
	// simulations. Progress runs execute outside the shard queue, so
	// this capacity is additive to the scheduler's: at most Shards extra
	// simulations on top of the Shards queued ones, never unbounded.
	progressSem chan struct{}
	// progress single-flights progress runs by canonical key: concurrent
	// duplicates wait for the owner and replay its cached result instead
	// of recomputing.
	progress Flight[struct{}]

	// logger receives one structured record per request (the span
	// timeline) plus service lifecycle events; defaults to discarding.
	logger *slog.Logger
	// metrics is the HTTP instrument set; metrics.reg is the registry
	// GET /metrics exposes (cache, scheduler, and sim families register
	// into the same one).
	metrics *serviceMetrics
	// sweepDeduped counts, across all sweeps, indices that replayed
	// another index's bytes via batch-wide fingerprint dedupe.
	sweepDeduped atomic.Uint64
	// biasedRuns counts simulations this service actually executed (not
	// cache replays) under importance-sampled failure biasing.
	biasedRuns atomic.Uint64
}

// New returns a started service (its scheduler workers are running).
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:         cfg,
		cache:       newResultCache(cfg.CacheSize),
		diskStore:   cfg.Store,
		sched:       newScheduler(cfg.Shards, cfg.QueueDepth, cfg.JobTimeout),
		mux:         http.NewServeMux(),
		start:       time.Now(),
		progressSem: make(chan struct{}, cfg.Shards),
		logger:      cfg.Logger,
	}
	if s.logger == nil {
		s.logger = slog.New(slog.DiscardHandler)
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	s.metrics = newServiceMetrics(reg)
	s.cache.instrument(reg)
	if in, ok := s.diskStore.(interface {
		Instrument(*telemetry.Registry)
	}); ok {
		in.Instrument(reg)
	}
	s.sched.instrument(reg)
	sim.EnableMetrics(reg)
	reg.GaugeFunc("ltsimd_progress_inflight",
		"Progress-streamed estimate runs currently in flight (single-flight owners).", func() float64 {
			return float64(s.progress.Len())
		})
	reg.GaugeFunc("ltsimd_uptime_seconds", "Seconds since the service started.", func() float64 {
		return time.Since(s.start).Seconds()
	})

	s.mux.HandleFunc("POST /estimate", s.handleEstimate)
	s.mux.HandleFunc("POST /sweep", s.handleSweep)
	s.mux.HandleFunc("POST /scenarios/expand", s.handleScenarioExpand)
	s.mux.HandleFunc("GET /experiments", s.handleExperiments)
	s.mux.HandleFunc("POST /experiments/run", s.handleExperimentRun)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.Handle("GET /metrics", reg.Handler())
	return s
}

// Handler returns the HTTP surface, wrapped in the telemetry middleware
// (request IDs, per-route latency histograms, structured request logs).
func (s *Service) Handler() http.Handler { return s.withTelemetry(s.mux) }

// MetricsRegistry returns the registry behind GET /metrics.
func (s *Service) MetricsRegistry() *telemetry.Registry { return s.metrics.reg }

// Shutdown drains the scheduler (see scheduler.Shutdown for semantics),
// then closes the persistent store so its directory can be reopened by
// the next process — draining first means every completed job's bytes
// reach disk before the store stops accepting writes.
func (s *Service) Shutdown(ctx context.Context) error {
	err := s.sched.Shutdown(ctx)
	if s.diskStore != nil {
		if cerr := s.diskStore.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Cache tiers, as they appear in the X-Ltsimd-Cache header and sweep
// summaries: "hit" is the in-memory LRU, "disk" the persistent store.
const (
	tierMemory = "hit"
	tierDisk   = "disk"
)

// cacheGet probes the memory tier then the persistent store. A store
// hit promotes the bytes back into memory (read-through), so the next
// probe of a hot key is a memory hit; tier reports which tier answered.
func (s *Service) cacheGet(key string) (body []byte, tier string, ok bool) {
	if body, ok := s.cache.Get(key); ok {
		return body, tierMemory, true
	}
	if s.diskStore == nil {
		return nil, "", false
	}
	body, ok = s.diskStore.Get(key)
	if !ok {
		return nil, "", false
	}
	s.cache.Put(key, body)
	return body, tierDisk, true
}

// cachePut writes through both tiers.
func (s *Service) cachePut(key string, val []byte) {
	s.cache.Put(key, val)
	if s.diskStore != nil {
		s.diskStore.Put(key, val)
	}
}

// WriteError emits a JSON error body with the given status; the ltsimr
// router answers in the same shape.
func WriteError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// submitStatus maps a scheduler error onto an HTTP status.
func submitStatus(err error) int {
	switch {
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrShuttingDown):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, sim.ErrInvalidConfig):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

// applyPolicy folds the daemon-level request policy into a request
// before it is built and fingerprinted, so the effective (and cached)
// configuration is the policy-adjusted one: DefaultTargetRel turns
// budget-less requests adaptive, MaxTrialsCap clamps every trial budget.
func (s *Service) applyPolicy(req EstimateRequest) EstimateRequest {
	if s.cfg.DefaultTargetRel > 0 && req.Trials == 0 && req.TargetRelWidth == 0 {
		req.TargetRelWidth = s.cfg.DefaultTargetRel
	}
	// The bias default only reaches requests it could be valid for:
	// biasing needs a censoring horizon.
	if s.cfg.DefaultBias != 0 && req.Bias == 0 && req.HorizonYears > 0 {
		req.Bias = s.cfg.DefaultBias
	}
	if cap := s.cfg.MaxTrialsCap; cap > 0 {
		if req.TargetRelWidth > 0 {
			if req.MaxTrials == 0 || req.MaxTrials > cap {
				req.MaxTrials = cap
			}
			if req.Trials > cap {
				req.Trials = cap
			}
		} else {
			if req.Trials == 0 {
				req.Trials = scenario.DefaultTrials // make the wire default explicit before clamping
			}
			if req.Trials > cap {
				req.Trials = cap
			}
		}
	}
	return req
}

// resolved applies policy, builds, and fingerprints one request,
// returning the policy-effective request alongside so callers that
// display it (the /scenarios/expand dry run) derive it from the same
// pass that produced the key.
func (s *Service) resolved(req EstimateRequest) (string, EstimateRequest, sim.Config, sim.Options, error) {
	req = s.applyPolicy(req)
	cfg, opt, err := req.Build()
	if err != nil {
		return "", req, sim.Config{}, sim.Options{}, err
	}
	opt.Parallel = s.cfg.SimParallel
	key, err := sim.Fingerprint(cfg, opt)
	if err != nil {
		return "", req, sim.Config{}, sim.Options{}, err
	}
	return key, req, cfg, opt, nil
}

// resolve fingerprints one request and returns the compute closure that
// produces (and caches) its encoded result.
func (s *Service) resolve(req EstimateRequest) (key string, compute func(context.Context) ([]byte, error), err error) {
	key, _, cfg, opt, err := s.resolved(req)
	if err != nil {
		return "", nil, err
	}
	compute = func(ctx context.Context) ([]byte, error) {
		runner, err := sim.NewRunner(cfg)
		if err != nil {
			return nil, err
		}
		if opt.Bias != 0 {
			s.biasedRuns.Add(1)
		}
		est, err := runner.EstimateContext(ctx, opt)
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(report.NewEstimateJSON(est, opt.Horizon))
		if err != nil {
			return nil, err
		}
		// ctx carries the owning request's trace through the scheduler.
		telemetry.TraceFrom(ctx).Mark("encoded")
		s.cachePut(key, body)
		return body, nil
	}
	return key, compute, nil
}

// handleEstimate serves one estimate: cache hit replays the stored
// bytes; miss schedules the simulation and waits for it.
func (s *Service) handleEstimate(w http.ResponseWriter, r *http.Request) {
	var req EstimateRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	if req.Progress {
		s.streamEstimate(w, r, req)
		return
	}
	tr := telemetry.TraceFrom(r.Context())
	key, compute, err := s.resolve(req)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	tr.Mark("resolved")
	body, tier, hit := s.cacheGet(key)
	joined := false
	if !hit {
		tr.Mark("queued")
		body, joined, err = s.sched.submit(r.Context(), key, compute)
		if err != nil {
			WriteError(w, submitStatus(err), err)
			return
		}
	}
	disp := "miss"
	switch {
	case hit:
		// tierMemory ("hit") or tierDisk ("disk"), per the tier that
		// actually answered.
		disp = tier
	case joined:
		// The request coalesced onto an already-in-flight computation of
		// the same fingerprint and replayed its bytes.
		disp = "dedup"
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("X-Ltsimd-Key", key)
	h.Set("X-Ltsimd-Cache", disp)
	w.Write(body)
	w.Write([]byte("\n"))
}

// ProgressJSON is a sim.Progress snapshot on the wire. RelWidth is
// omitted while the stopping criterion is not yet estimable (JSON cannot
// carry +Inf).
type ProgressJSON struct {
	Trials   int                  `json:"trials"`
	Budget   int                  `json:"budget"`
	Batches  int                  `json:"batches"`
	Losses   int                  `json:"losses"`
	Censored int                  `json:"censored"`
	MTTDL    *report.IntervalJSON `json:"mttdl_hours,omitempty"`
	LossProb *report.IntervalJSON `json:"loss_prob,omitempty"`
	RelWidth *float64             `json:"rel_width,omitempty"`
	Target   float64              `json:"target_rel_width,omitempty"`
	// EffectiveSamples is the weighted estimator's effective loss count
	// so far; omitted in unbiased runs (additive field).
	EffectiveSamples *float64 `json:"effective_samples,omitempty"`
}

// newProgressJSON converts a snapshot.
func newProgressJSON(p sim.Progress) *ProgressJSON {
	out := &ProgressJSON{
		Trials:   p.Trials,
		Budget:   p.Budget,
		Batches:  p.Batches,
		Losses:   p.Losses,
		Censored: p.Censored,
		Target:   p.TargetRelWidth,
	}
	if !math.IsInf(p.RelWidth, 1) {
		rw := p.RelWidth
		out.RelWidth = &rw
	}
	if p.MTTDL.Level != 0 {
		iv := report.NewIntervalJSON(p.MTTDL)
		out.MTTDL = &iv
	}
	if p.LossProb.Level != 0 {
		iv := report.NewIntervalJSON(p.LossProb)
		out.LossProb = &iv
	}
	if p.EffectiveSamples > 0 {
		ess := p.EffectiveSamples
		out.EffectiveSamples = &ess
	}
	return out
}

// EstimateFrame is one NDJSON line of a progress-streamed estimate:
// either a progress snapshot, the final frame carrying the canonical
// result bytes (identical to the plain /estimate body, and to what the
// cache replays), or an error.
type EstimateFrame struct {
	Progress *ProgressJSON   `json:"progress,omitempty"`
	Final    bool            `json:"final,omitempty"`
	Key      string          `json:"key,omitempty"`
	Cache    string          `json:"cache,omitempty"`
	Result   json.RawMessage `json:"result,omitempty"`
	Error    string          `json:"error,omitempty"`
}

// streamEstimate serves one estimate as an NDJSON stream: progress
// frames at batch boundaries (throttled), then a final frame with the
// canonical result body. A cache hit skips straight to the final frame.
// Progress runs execute on the request goroutine under the per-job
// timeout rather than on the shard queue — a queued job could not emit
// frames while it waits — but they are still disciplined: duplicates of
// an in-flight key coalesce onto the owner's result, at most Shards
// progress simulations run at once (additively to the scheduler's own
// Shards workers; excess requests get 503, the same backpressure signal
// a full shard queue sends), and the result lands in the shared cache
// under the same canonical key a plain request would use.
func (s *Service) streamEstimate(w http.ResponseWriter, r *http.Request, req EstimateRequest) {
	tr := telemetry.TraceFrom(r.Context())
	key, _, cfg, opt, err := s.resolved(req)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	tr.Mark("resolved")
	// Serve cache hits before taking a slot: replaying bytes is cheap.
	// Single-flight: a duplicate of an in-flight progress run waits for
	// the owner and replays its cached bytes instead of recomputing.
	body, tier, hit := s.cacheGet(key)
	if !hit {
		_, joined, err := s.progress.Do(r.Context(), key, func() (struct{}, error) {
			s.runProgress(w, r, key, cfg, opt)
			return struct{}{}, nil
		})
		if !joined || err != nil {
			return
		}
		if body, tier, hit = s.cacheGet(key); !hit {
			// The owner failed; report rather than silently recomputing.
			WriteError(w, http.StatusInternalServerError, errors.New("service: coalesced progress run failed; retry"))
			return
		}
	}
	h := w.Header()
	h.Set("Content-Type", "application/x-ndjson")
	h.Set("X-Ltsimd-Key", key)
	h.Set("X-Ltsimd-Cache", tier)
	json.NewEncoder(w).Encode(EstimateFrame{Final: true, Key: key, Cache: tier, Result: body})
}

// runProgress is the single-flight owner's half of streamEstimate: it
// takes a progress slot, runs the simulation on the request goroutine
// and streams its frames.
func (s *Service) runProgress(w http.ResponseWriter, r *http.Request, key string, cfg sim.Config, opt sim.Options) {
	tr := telemetry.TraceFrom(r.Context())
	select {
	case s.progressSem <- struct{}{}:
		defer func() { <-s.progressSem }()
	default:
		WriteError(w, http.StatusServiceUnavailable, errors.New("service: progress-streaming capacity exhausted"))
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/x-ndjson")
	h.Set("X-Ltsimd-Key", key)
	emit := json.NewEncoder(FlushWriter{w}).Encode
	h.Set("X-Ltsimd-Cache", "miss")

	runner, err := sim.NewRunner(cfg)
	if err != nil {
		emit(EstimateFrame{Error: err.Error(), Key: key})
		return
	}
	// Progress runs execute on the request goroutine, so the span
	// timeline skips "queued" and marks "running" directly.
	tr.Mark("running")
	if opt.Bias != 0 {
		s.biasedRuns.Add(1)
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.JobTimeout)
	defer cancel()
	var lastEmit time.Time
	est, err := runner.EstimateStream(ctx, opt, func(p sim.Progress) {
		if p.Final {
			return // the final frame below carries the result
		}
		// Always emit the first boundary, then throttle so a
		// million-trial run does not flood the connection.
		if !lastEmit.IsZero() && time.Since(lastEmit) < 100*time.Millisecond {
			return
		}
		lastEmit = time.Now()
		emit(EstimateFrame{Progress: newProgressJSON(p), Key: key})
	})
	if err != nil {
		emit(EstimateFrame{Error: err.Error(), Key: key})
		return
	}
	body, err := json.Marshal(report.NewEstimateJSON(est, opt.Horizon))
	if err != nil {
		emit(EstimateFrame{Error: err.Error(), Key: key})
		return
	}
	tr.Mark("encoded")
	s.cachePut(key, body)
	emit(EstimateFrame{Final: true, Key: key, Cache: "miss", Result: body})
}

// handleSweep streams a batch through the shared fan-out with the
// daemon's backend: each unique key is served from cache or scheduled.
// The pool is sized below total queue capacity so a large sweep applies
// backpressure to itself instead of tripping 503s.
func (s *Service) handleSweep(w http.ResponseWriter, r *http.Request) {
	Sweep[func(context.Context) ([]byte, error)]{
		Pool:    max(1, s.cfg.Shards*s.cfg.QueueDepth/2),
		Resolve: s.resolve,
		Run: func(ctx context.Context, key string, compute func(context.Context) ([]byte, error)) (SweepLine, string, error) {
			if body, tier, hit := s.cacheGet(key); hit {
				return SweepLine{Key: key, Result: body}, tier, nil
			}
			body, err := s.submitWithRetry(ctx, key, compute)
			return SweepLine{Key: key, Result: body}, "", err
		},
		Deduped: func(n int) {
			s.sweepDeduped.Add(uint64(n))
			s.metrics.sweepDeduped.Add(uint64(n))
		},
	}.ServeHTTP(w, r)
}

// ExpandLine is one NDJSON line of a /scenarios/expand dry run: an
// expanded point (its deterministic index, the coordinates that
// produced it, the policy-effective request, and the fingerprint a
// sweep of this document would cache under), or a per-point build
// error, with a trailing summary line.
type ExpandLine struct {
	Index   int              `json:"index"`
	Key     string           `json:"key,omitempty"`
	Coords  []scenario.Coord `json:"coords,omitempty"`
	Request *EstimateRequest `json:"request,omitempty"`
	Error   string           `json:"error,omitempty"`
	Summary bool             `json:"summary,omitempty"`
	Name    string           `json:"name,omitempty"`
	Points  int              `json:"points,omitempty"`
	OK      int              `json:"ok,omitempty"`
	Errors  int              `json:"errors,omitempty"`
}

// handleScenarioExpand is the dry run behind scenario-driven sweeps: it
// expands a document server-side and streams every point with its
// fingerprint, without scheduling any simulation. The reported request
// is the policy-effective one (after the daemon's -target-rel /
// -max-trials adjustments), so the keys are exactly what /sweep would
// hit; a daemon with no request policy reports the expansion verbatim,
// fingerprint-identical to client-side scenario.Expand.
func (s *Service) handleScenarioExpand(w http.ResponseWriter, r *http.Request) {
	var doc scenario.Document
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("decoding scenario: %w", err))
		return
	}
	points, err := scenario.Expand(doc)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	// Fingerprinting is the same CPU-bound work the sweep parallelizes;
	// resolve across cores, then emit in index order.
	lines := make([]ExpandLine, len(points))
	parallelFor(len(points), func(i int) {
		line := ExpandLine{Index: points[i].Index, Coords: points[i].Coords}
		if key, eff, _, _, err := s.resolved(points[i].Request); err != nil {
			line.Error = err.Error()
		} else {
			line.Key = key
			line.Request = &eff
		}
		lines[i] = line
	})

	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	summary := ExpandLine{Summary: true, Name: doc.Name, Points: len(points)}
	for _, line := range lines {
		if line.Error != "" {
			summary.Errors++
		} else {
			summary.OK++
		}
		enc.Encode(line)
	}
	enc.Encode(summary)
}

// submitWithRetry is Submit with backoff on a full shard queue: the
// sweep semaphore caps total concurrency, but key hashing can still
// skew submissions onto one shard, and a sweep item should wait its
// turn rather than surface a transient 503 as a failed line.
func (s *Service) submitWithRetry(ctx context.Context, key string, compute func(context.Context) ([]byte, error)) ([]byte, error) {
	backoff := 5 * time.Millisecond
	for {
		body, err := s.sched.Submit(ctx, key, compute)
		if !errors.Is(err, ErrQueueFull) {
			return body, err
		}
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if backoff < 200*time.Millisecond {
			backoff *= 2
		}
	}
}

// handleExperiments lists the registered experiment index.
func (s *Service) handleExperiments(w http.ResponseWriter, _ *http.Request) {
	type entry struct {
		ID     string `json:"id"`
		Title  string `json:"title"`
		Source string `json:"source"`
	}
	out := make([]entry, 0)
	for _, e := range experiments.All() {
		out = append(out, entry{ID: e.ID, Title: e.Title, Source: e.Source})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

// experimentResult is an experiment run on the wire: tables as
// structured grids, plots pre-rendered as the same ASCII the CLI draws.
type experimentResult struct {
	ID     string          `json:"id"`
	Title  string          `json:"title"`
	Source string          `json:"source"`
	Tables []*report.Table `json:"tables"`
	Plots  []string        `json:"plots"`
	Notes  []string        `json:"notes"`
}

// handleExperimentRun runs one registered experiment by id
// (?id=E2&quick=1&seed=1) through the same scheduler and cache as
// estimates — experiments are deterministic in (id, seed, quick), so
// they content-address just as well.
func (s *Service) handleExperimentRun(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	e, ok := experiments.ByID(id)
	if !ok {
		WriteError(w, http.StatusNotFound, fmt.Errorf("unknown experiment %q", id))
		return
	}
	quick := false
	if q := r.URL.Query().Get("quick"); q != "" {
		v, err := strconv.ParseBool(q)
		if err != nil {
			WriteError(w, http.StatusBadRequest, fmt.Errorf("quick: %w", err))
			return
		}
		quick = v
	}
	var seed uint64 = 1
	if q := r.URL.Query().Get("seed"); q != "" {
		v, err := strconv.ParseUint(q, 10, 64)
		if err != nil {
			WriteError(w, http.StatusBadRequest, fmt.Errorf("seed: %w", err))
			return
		}
		seed = v
	}
	key := fmt.Sprintf("exp/v1|%s|seed=%d|quick=%t", e.ID, seed, quick)
	body, tier, hit := s.cacheGet(key)
	if !hit {
		var err error
		body, err = s.sched.Submit(r.Context(), key, func(ctx context.Context) ([]byte, error) {
			res, err := runExperiment(ctx, e, experiments.RunConfig{Seed: seed, Quick: quick})
			if err != nil {
				return nil, err
			}
			out := experimentResult{
				ID: e.ID, Title: e.Title, Source: e.Source,
				Tables: res.Tables, Plots: make([]string, 0, len(res.Plots)),
				Notes: res.Notes,
			}
			if out.Tables == nil {
				out.Tables = []*report.Table{}
			}
			if out.Notes == nil {
				out.Notes = []string{}
			}
			for _, p := range res.Plots {
				var sb strings.Builder
				if err := p.Render(&sb); err != nil {
					return nil, err
				}
				out.Plots = append(out.Plots, sb.String())
			}
			b, err := json.Marshal(out)
			if err != nil {
				return nil, err
			}
			s.cachePut(key, b)
			return b, nil
		})
		if err != nil {
			WriteError(w, submitStatus(err), err)
			return
		}
	}
	disp := "miss"
	if hit {
		disp = tier
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("X-Ltsimd-Key", key)
	h.Set("X-Ltsimd-Cache", disp)
	w.Write(body)
	w.Write([]byte("\n"))
}

// runExperiment runs e under ctx's deadline. Experiment Run functions
// predate context support, so cancellation is cooperative only at the
// job boundary: on timeout or shutdown the job publishes ctx's error
// promptly (keeping the drain budget honest) while the orphaned Run
// finishes on its own goroutine and is discarded — experiments are
// finite, so the goroutine terminates, it just stops counting.
func runExperiment(ctx context.Context, e experiments.Experiment, cfg experiments.RunConfig) (*experiments.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	type outcome struct {
		res *experiments.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := e.Run(cfg)
		done <- outcome{res, err}
	}()
	select {
	case out := <-done:
		return out.res, out.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// handleHealthz is the liveness probe.
func (s *Service) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.start).Seconds(),
	})
}

// StatsSnapshot is the /stats payload. ProgressInflight and
// SweepDeduped are additive (PR 7); the earlier fields keep their names
// and positions, so pre-existing consumers decode unchanged.
type StatsSnapshot struct {
	UptimeSeconds float64        `json:"uptime_seconds"`
	Cache         CacheStats     `json:"cache"`
	Scheduler     SchedulerStats `json:"scheduler"`
	// ProgressInflight counts progress-streamed estimate runs currently
	// in flight (single-flight owners executing off the shard queue).
	ProgressInflight int `json:"progress_inflight"`
	// SweepDeduped is the cumulative count of sweep indices that
	// replayed another index's bytes via batch-wide fingerprint dedupe.
	SweepDeduped uint64 `json:"sweep_deduped"`
	// BiasedRuns is the cumulative count of simulations executed (not
	// cache replays) under importance-sampled failure biasing. Additive
	// (PR 8); pre-existing consumers decode unchanged.
	BiasedRuns uint64 `json:"biased_runs"`
	// Store is the persistent result tier's snapshot; omitted entirely on
	// memory-only daemons. Additive (PR 9); its Hits vs the memory
	// cache's Hits is the per-node tier attribution the ltsimr router
	// aggregates as cluster cache warmth.
	Store *store.Stats `json:"store,omitempty"`
}

// Stats snapshots the service counters.
func (s *Service) Stats() StatsSnapshot {
	snap := StatsSnapshot{
		UptimeSeconds:    time.Since(s.start).Seconds(),
		Cache:            s.cache.Stats(),
		Scheduler:        s.sched.Stats(),
		ProgressInflight: s.progress.Len(),
		SweepDeduped:     s.sweepDeduped.Load(),
		BiasedRuns:       s.biasedRuns.Load(),
	}
	if s.diskStore != nil {
		st := s.diskStore.Stats()
		snap.Store = &st
	}
	return snap
}

// handleStats reports cache and scheduler health.
func (s *Service) handleStats(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.Stats())
}
