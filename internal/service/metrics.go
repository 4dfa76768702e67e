package service

import (
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"repro/internal/telemetry"
)

// serviceMetrics holds the HTTP-layer instrument handles. Cache and
// scheduler instruments live on their own types (resultCache.instrument,
// scheduler.instrument); everything registers into one registry that
// GET /metrics exposes.
type serviceMetrics struct {
	httpSeconds  *telemetry.HistogramVec // route, status, cache
	httpInflight *telemetry.Gauge
}

// newServiceMetrics registers the HTTP metric families.
func newServiceMetrics(reg *telemetry.Registry) *serviceMetrics {
	return &serviceMetrics{
		httpSeconds: reg.HistogramVec("ltsimd_http_request_seconds",
			"HTTP request latency by route, status code, and cache outcome (hit, miss, dedup, none).",
			telemetry.DurationBuckets, "route", "status", "cache"),
		httpInflight: reg.Gauge("ltsimd_http_in_flight",
			"HTTP requests currently being served."),
	}
}

// routeLabel folds a request path onto the bounded route label set so
// arbitrary client paths cannot explode metric cardinality.
func routeLabel(path string) string {
	switch path {
	case "/estimate", "/sweep", "/scenarios/expand", "/experiments",
		"/experiments/run", "/healthz", "/stats", "/metrics":
		return path
	}
	return "other"
}

// request is one request's middleware state and its only heap object
// on a memory hit: the status recorder handlers write through, the
// trace, the context that carries the trace, and the value slice of the
// X-Ltsimd-Request header. It is never recycled: a scheduler job keeps
// the trace and marks it after a hung-up client's handler has returned.
type request struct {
	http.ResponseWriter
	status int
	trace  telemetry.Trace
	ctx    telemetry.TraceContext
	id     [1]string
}

func (r *request) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// Flush passes flushes through, so NDJSON streaming handlers keep
// working behind the middleware.
func (r *request) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// statusLabel is a status code's metric label; the common 200 needs no
// formatting.
func statusLabel(code int) string {
	if code == http.StatusOK {
		return "200"
	}
	return strconv.Itoa(code)
}

// withTelemetry is the observability middleware: it assigns every
// request an ID (returned in X-Ltsimd-Request and attached to the
// context as a telemetry.Trace that handlers and scheduler jobs mark),
// records the per-route latency histogram split by status and cache
// outcome, and emits one structured slog record per request carrying
// the span timeline as NDJSON.
func (s *Service) withTelemetry(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rq := &request{ResponseWriter: w, status: http.StatusOK}
		tr := &rq.trace
		tr.Begin()
		tr.Mark("received")
		rq.id[0] = tr.ID
		w.Header()["X-Ltsimd-Request"] = rq.id[:] // see setAnswerHeaders
		rq.ctx = telemetry.TraceContext{Context: r.Context(), Trace: tr}
		r = r.WithContext(&rq.ctx)

		s.metrics.httpInflight.Add(1)
		// Deferred, so a handler that panics (net/http recovers it and
		// drops the connection) still leaves the gauge.
		defer s.metrics.httpInflight.Add(-1)
		h.ServeHTTP(rq, r)
		tr.Mark("served")

		route := routeLabel(r.URL.Path)
		cache := rq.Header().Get("X-Ltsimd-Cache")
		if cache == "" {
			cache = "none"
		}
		elapsed := time.Since(tr.Start)
		s.metrics.httpSeconds.With(route, statusLabel(rq.status), cache).Observe(elapsed.Seconds())

		// Scrape and liveness traffic logs at debug so steady-state
		// monitoring does not flood the request log.
		level := slog.LevelInfo
		if route == "/healthz" || route == "/metrics" {
			level = slog.LevelDebug
		}
		// The record's attributes copy the span timeline, so skip
		// building them when the handler would drop the record.
		if !s.logger.Enabled(r.Context(), level) {
			return
		}
		attrs := append([]slog.Attr{
			slog.String("method", r.Method),
			slog.String("route", route),
			slog.Int("status", rq.status),
			slog.String("cache", cache),
			slog.Float64("dur_ms", float64(elapsed.Nanoseconds())/1e6),
		}, tr.LogAttrs()...)
		s.logger.LogAttrs(r.Context(), level, "request", attrs...)
	})
}
