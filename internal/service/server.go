package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
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
	// memo maps /estimate bodies to the keys they resolved to, and
	// sweepMemo /sweep bodies to the keys of their points.
	memo      *KeyMemo
	sweepMemo *SweepMemo
	// diskStore is the persistent result tier under the memory LRU; nil
	// when the service runs memory-only (Config.Store unset).
	diskStore *store.DiskStore
	sched     *scheduler
	mux       *http.ServeMux
	start     time.Time
	// progressRuns counts scheduler jobs currently simulating on behalf
	// of a progress-streamed request.
	progressRuns atomic.Int64

	// logger receives one structured record per request (the span
	// timeline) plus service lifecycle events; defaults to discarding.
	logger *slog.Logger
	// metrics is the HTTP instrument set; the cache, scheduler, store and
	// sim families register into the same registry behind GET /metrics.
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
		cfg:       cfg,
		cache:     newResultCache(cfg.CacheSize),
		memo:      NewKeyMemo(cfg.CacheSize),
		sweepMemo: NewSweepMemo(cfg.CacheSize),
		diskStore: cfg.Store,
		sched:     newScheduler(cfg.Shards, cfg.QueueDepth, cfg.JobTimeout),
		mux:       http.NewServeMux(),
		start:     time.Now(),
		logger:    cfg.Logger,
	}
	if s.logger == nil {
		s.logger = slog.New(slog.DiscardHandler)
	}
	reg := telemetry.NewRegistry()
	s.metrics = newServiceMetrics(reg)
	s.cache.instrument(reg)
	if s.diskStore != nil {
		s.diskStore.Instrument(reg)
	}
	s.sched.instrument(reg)
	sim.EnableMetrics(reg)
	reg.CounterFunc("ltsimd_sweep_deduped_total",
		"Sweep indices absorbed by batch-wide fingerprint dedupe (duplicates replaying another index's bytes).",
		s.sweepDeduped.Load)
	reg.GaugeFunc("ltsimd_progress_inflight",
		"Progress-streamed estimate runs currently in flight (single-flight owners).", func() float64 {
			return float64(s.progressRuns.Load())
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

// MaxBodyBytes bounds every request body ltsimd and the ltsimr router
// read: /estimate, /sweep and /scenarios/expand. A larger body gets 413
// and schedules nothing. It is about 80 times the largest /estimate (a
// scenario.MaxReplicas explicit fleet with every field and a hazard set
// on each entry is about 0.4 MiB) and far above any scenario document.
// It does refuse some explicit /sweep lists of legal requests: a
// scenario.MaxPoints list has room for only about 500 bytes per
// request, so a longer list of large requests must be split into
// several sweeps or written as a scenario document, which the server
// expands itself.
const MaxBodyBytes = 32 << 20

// ReadBody reads r's body, at most MaxBodyBytes of it, into a buffer of
// its own (see readBody).
func ReadBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	var buf bytes.Buffer
	err := readBody(&buf, w, r)
	return buf.Bytes(), err
}

// bodyPresize caps how far readBody grows a buffer ahead of the bytes.
const bodyPresize = 64 << 10

// readBody reads r's body, at most MaxBodyBytes of it, into buf. The
// buffer is grown from the declared Content-Length, so a body that
// declares its length is read without regrowing; the growth is capped
// at bodyPresize, so a declared length that is a lie allocates little
// ahead of the bytes that actually arrive.
func readBody(buf *bytes.Buffer, w http.ResponseWriter, r *http.Request) error {
	if cl := r.ContentLength; cl > 0 {
		// ReadFrom keeps bytes.MinRead free for each read, the last of
		// which finds the EOF.
		buf.Grow(int(min(cl, bodyPresize)) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	return err
}

// bodyPool holds the buffers /estimate bodies are read into. A buffer
// goes back only from a handler that keeps none of its bytes: the memo
// and a hit keep nothing, and a miss's job owns a copy of the body.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// putBody returns buf to bodyPool, unless a large body grew it past
// what an ordinary request needs; the GC takes that one.
func putBody(buf *bytes.Buffer) {
	if buf.Cap() > 2*bodyPresize {
		return
	}
	buf.Reset()
	bodyPool.Put(buf)
}

// RequestStatus is the status of a request whose body failed to read or
// decode: 413 when the body passed MaxBodyBytes, 400 otherwise.
func RequestStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// WriteError emits a JSON error body with the given status; the ltsimr
// router answers in the same shape.
func WriteError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// StatusClientClosedRequest is the status of a request whose client
// hung up before its answer was ready: nginx's 499 "client closed
// request". The client never reads it; the request log and the latency
// histogram do.
const StatusClientClosedRequest = 499

// submitStatus maps a scheduler error onto an HTTP status. ctx is the
// request's context, which tells whose context a context.Canceled came
// from: the client's, if ctx has ended, and otherwise the job's, aborted
// by Shutdown past its drain deadline.
func submitStatus(ctx context.Context, err error) int {
	switch {
	case errors.Is(err, context.Canceled) && ctx.Err() != nil:
		return StatusClientClosedRequest
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrShuttingDown), errors.Is(err, context.Canceled):
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

// key is the cache key one request resolves to: the resolve function
// behind the /estimate body memo. The memo may keep its answers for as
// long as the service runs only because the policy folded in here is
// fixed at New.
func (s *Service) key(req EstimateRequest) (string, error) {
	key, _, _, _, err := s.resolved(req)
	return key, err
}

// resolve fingerprints one request and returns the job that simulates
// it and encodes its result. progress, when non-nil, receives the run's
// batch-boundary snapshots. The job is the service's only call into the
// simulator, and only a scheduler worker runs it.
func (s *Service) resolve(req EstimateRequest, progress func(sim.Progress)) (key string, compute func(context.Context) ([]byte, error), err error) {
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
		if progress != nil {
			s.progressRuns.Add(1)
			defer s.progressRuns.Add(-1)
		}
		est, err := runner.EstimateStream(ctx, opt, progress)
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(report.NewEstimateJSON(est, opt.Horizon))
		if err != nil {
			return nil, err
		}
		// ctx carries the owning request's trace through the scheduler.
		telemetry.TraceFrom(ctx).Mark("encoded")
		return body, nil
	}
	return key, compute, nil
}

// lookup is the one route every keyed answer takes, up to the wait: a
// cache probe (memory, then disk), else a scheduler job that runs fn and
// writes its bytes through both tiers. disp is the X-Ltsimd-Cache value:
// the answering tier ("hit" or "disk", with body set), or "miss" or
// "dedup" with the job's call to wait on (see schedule).
func (s *Service) lookup(ctx context.Context, key string, fn func(context.Context) ([]byte, error), retry bool) (body []byte, disp string, c *Call[[]byte], err error) {
	if body, tier, ok := s.cacheGet(key); ok {
		return body, tier, nil, nil
	}
	disp, c, err = s.schedule(ctx, key, fn, retry)
	return nil, disp, c, err
}

// schedule is lookup after a cache miss: it queues a job that runs fn
// and writes its bytes through both tiers. disp is "dedup" when a job
// for key was already queued or running and this request joined it,
// "miss" otherwise. With retry a full shard queue is waited out rather
// than returned, so a sweep paces itself instead of failing points; a
// lone request gets the 503.
func (s *Service) schedule(ctx context.Context, key string, fn func(context.Context) ([]byte, error), retry bool) (disp string, c *Call[[]byte], err error) {
	telemetry.TraceFrom(ctx).Mark("queued")
	run := func(ctx context.Context) ([]byte, error) {
		body, err := fn(ctx)
		if err == nil {
			s.cachePut(key, body)
		}
		return body, err
	}
	backoff := 5 * time.Millisecond
	for {
		c, joined, err := s.sched.enqueue(ctx, key, run)
		switch {
		case err == nil && joined:
			return "dedup", c, nil
		case err == nil:
			return "miss", c, nil
		case !retry || !errors.Is(err, ErrQueueFull):
			return "", nil, err
		}
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			return "", nil, ctx.Err()
		}
		backoff = min(2*backoff, 200*time.Millisecond)
	}
}

// answer is lookup followed by the wait for the job's bytes.
func (s *Service) answer(ctx context.Context, key string, fn func(context.Context) ([]byte, error), retry bool) ([]byte, string, error) {
	body, disp, c, err := s.lookup(ctx, key, fn, retry)
	if c != nil {
		body, err = c.Wait(ctx)
	}
	return body, disp, err
}

// handleEstimate serves one estimate as a JSON body, or with "progress"
// as an NDJSON stream (streamEstimate); both take the lookup route. The
// body memo resolves a repeated body to its key without decoding it, and
// a hit is answered before any job is built.
func (s *Service) handleEstimate(w http.ResponseWriter, r *http.Request) {
	buf := bodyPool.Get().(*bytes.Buffer)
	defer putBody(buf)
	if err := readBody(buf, w, r); err != nil {
		WriteError(w, RequestStatus(err), fmt.Errorf("decoding request: %w", err))
		return
	}
	key, progress, err := s.memo.Key(buf.Bytes(), s.key)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	ctx := r.Context()
	telemetry.TraceFrom(ctx).Mark("resolved")
	if progress {
		compute, frames := s.estimateJob(buf.Bytes(), true)
		s.streamEstimate(w, r, key, compute, frames)
		return
	}
	// The request's one cache probe, split from lookup so that a hit
	// answers before the job is built.
	answer, disp, ok := s.cacheGet(key)
	if !ok {
		compute, _ := s.estimateJob(buf.Bytes(), false)
		var c *Call[[]byte]
		if disp, c, err = s.schedule(ctx, key, compute, false); c != nil {
			answer, err = c.Wait(ctx)
		}
	}
	writeAnswer(ctx, w, key, disp, answer, err)
}

// estimateJob returns the job that answers an /estimate miss. It copies
// body, so the request's buffer can go back to the pool while the job
// is still queued. The memo keeps only the key, so the job decodes and
// resolves the body again to get the run; that costs little next to the
// simulation, and only a miss pays it. With progress, frames receives
// the run's batch-boundary snapshots.
func (s *Service) estimateJob(body []byte, progress bool) (compute func(context.Context) ([]byte, error), frames chan sim.Progress) {
	body = bytes.Clone(body)
	var sink func(sim.Progress)
	if progress {
		// The simulation never waits on the client: a snapshot that
		// finds the buffer full is dropped, as the throttle would drop
		// it anyway. Eight slots absorb the batch boundaries a fast run
		// crosses while one frame is being written.
		frames = make(chan sim.Progress, 8)
		sink = func(p sim.Progress) {
			if p.Final {
				return // the final frame carries the result
			}
			select {
			case frames <- p:
			default:
			}
		}
	}
	compute = func(ctx context.Context) ([]byte, error) {
		req, err := decodeEstimate(body)
		if err != nil {
			return nil, err
		}
		_, run, err := s.resolve(req, sink)
		if err != nil {
			return nil, err
		}
		return run(ctx)
	}
	return compute, frames
}

// Response bytes shared by every answer that writes them.
var (
	jsonType   = []string{"application/json"}
	ndjsonType = []string{"application/x-ndjson"}
	// cacheValues holds every X-Ltsimd-Cache value an answer can carry.
	cacheValues = map[string][]string{
		tierMemory: {tierMemory}, tierDisk: {tierDisk}, "miss": {"miss"}, "dedup": {"dedup"},
	}
	// newline ends an answer; a literal converted per call would escape.
	newline = []byte("\n")
)

// setAnswerHeaders sets an answer's Content-Type, X-Ltsimd-Key and
// X-Ltsimd-Cache headers. It assigns the map directly, since the names
// are already canonical; the value slices are shared, so nothing may
// write to them.
func setAnswerHeaders(h http.Header, contentType []string, key, disp string) {
	h["Content-Type"] = contentType
	h["X-Ltsimd-Key"] = []string{key}
	h["X-Ltsimd-Cache"] = cacheValues[disp]
}

// writeAnswer replies with one answer's bytes and its cache metadata,
// or with the error mapped onto its HTTP status; ctx is the request's.
func writeAnswer(ctx context.Context, w http.ResponseWriter, key, disp string, body []byte, err error) {
	if err != nil {
		WriteError(w, submitStatus(ctx, err), err)
		return
	}
	setAnswerHeaders(w.Header(), jsonType, key, disp)
	w.Write(body)
	w.Write(newline)
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
// canonical result body and the same X-Ltsimd-Cache value a plain
// request would get. It takes the lookup route like any other answer,
// so a progress run shares the shard queue's admission (a full queue is
// a 503) and single-flight with plain requests for the same key. The
// job hands snapshots to this goroutine through frames; only the job's
// owner receives any, and a request that joined another job simply
// waits for its bytes. A client that leaves does not stop the job: it
// completes and fills the cache.
func (s *Service) streamEstimate(w http.ResponseWriter, r *http.Request, key string, compute func(context.Context) ([]byte, error), frames <-chan sim.Progress) {
	ctx := r.Context()
	body, disp, c, err := s.lookup(ctx, key, compute, false)
	if err != nil {
		WriteError(w, submitStatus(ctx, err), err)
		return
	}
	setAnswerHeaders(w.Header(), ndjsonType, key, disp)
	// Send the headers now: a request that joined another job streams
	// nothing until the job's bytes arrive, but learns its disposition
	// as soon as it is admitted.
	flush := FlushWriter{w}
	flush.Flush()
	emit := json.NewEncoder(flush).Encode
	var lastEmit time.Time
	relay := func(p sim.Progress) {
		// Always emit the first boundary, then throttle so a
		// million-trial run does not flood the connection.
		if !lastEmit.IsZero() && time.Since(lastEmit) < 100*time.Millisecond {
			return
		}
		lastEmit = time.Now()
		emit(EstimateFrame{Progress: newProgressJSON(p), Key: key})
	}
	for c != nil {
		select {
		case p := <-frames:
			relay(p)
		case <-c.Done():
			// Snapshots buffered before the job finished go out ahead
			// of the final frame.
			for len(frames) > 0 {
				relay(<-frames)
			}
			body, err = c.Wait(ctx)
			c = nil
		case <-ctx.Done():
			return
		}
	}
	if err != nil {
		emit(EstimateFrame{Error: err.Error(), Key: key})
		return
	}
	emit(EstimateFrame{Final: true, Key: key, Cache: disp, Result: body})
}

// handleSweep streams a batch through the shared fan-out with the
// daemon's backend: each unique key is served from cache or scheduled.
// The pool is sized below total queue capacity so a large sweep applies
// backpressure to itself instead of tripping 503s.
func (s *Service) handleSweep(w http.ResponseWriter, r *http.Request) {
	type compute = func(context.Context) ([]byte, error)
	Sweep[compute]{
		Pool: max(1, s.cfg.Shards*s.cfg.QueueDepth/2),
		Memo: s.sweepMemo,
		Resolve: func(req EstimateRequest) (string, compute, error) {
			return s.resolve(req, nil)
		},
		// A remembered body's job is derived only on a cache miss, by the
		// scheduler job itself: the first such job decodes the body, as
		// handleEstimate's does.
		Run: func(ctx context.Context, key string, job func() (compute, error)) (SweepLine, string, error) {
			body, disp, err := s.answer(ctx, key, func(ctx context.Context) ([]byte, error) {
				run, err := job()
				if err != nil {
					return nil, err
				}
				return run(ctx)
			}, true)
			return SweepLine{Key: key, Result: body}, disp, err
		},
		Deduped: func(n int) {
			s.sweepDeduped.Add(uint64(n))
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
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		WriteError(w, RequestStatus(err), fmt.Errorf("decoding scenario: %w", err))
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
	body, disp, err := s.answer(r.Context(), key, func(ctx context.Context) ([]byte, error) {
		res, err := e.Run(ctx, experiments.RunConfig{Seed: seed, Quick: quick})
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
		return json.Marshal(out)
	}, false)
	writeAnswer(r.Context(), w, key, disp, body, err)
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
	// in flight (scheduler jobs simulating for a progress request).
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
		ProgressInflight: int(s.progressRuns.Load()),
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
