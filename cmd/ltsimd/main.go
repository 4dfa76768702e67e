// Command ltsimd serves the Monte Carlo reliability estimator as a
// long-running daemon: canonical request hashing, a content-addressed
// LRU result cache, and a sharded worker pool, so repeat what-if queries
// cost a cache lookup instead of a full simulation. With -cache-dir a
// persistent content-addressed store (internal/store) sits under the
// memory cache: results survive restarts and a warm daemon replays
// bit-identical bytes from disk (X-Ltsimd-Cache: disk).
//
//	ltsimd -addr :8356 -cache-dir /var/cache/ltsimd
//	curl -s localhost:8356/healthz
//	curl -s -X POST localhost:8356/estimate -d '{"alpha":0.1,"trials":2000}'
//	curl -s -X POST localhost:8356/estimate \
//	  -d '{"hazard":{"kind":"weibull","shape":2,"scale_hours":50000},"horizon_years":10}'
//	curl -s -X POST localhost:8356/sweep -d '{"requests":[{"replicas":2},{"replicas":3}]}'
//	curl -s localhost:8356/experiments
//	curl -s -X POST 'localhost:8356/experiments/run?id=E2&quick=1'
//	curl -s localhost:8356/stats
//	curl -s localhost:8356/metrics
//
// Observability: the daemon logs one NDJSON record per request to
// stderr (request ID, route, status, cache outcome, span timeline;
// -log-level tunes verbosity), exposes Prometheus metrics on
// GET /metrics, and — with -debug-addr — serves net/http/pprof on a
// separate listener so profiling never rides the public surface.
//
// SIGINT/SIGTERM trigger a graceful shutdown: the listener closes, then
// queued and in-flight jobs drain (up to -drain), then workers stop.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/store"
)

func main() {
	var (
		addr       = flag.String("addr", ":8356", "listen address")
		cacheSize  = flag.Int("cache", 1024, "result cache capacity, entries")
		shards     = flag.Int("shards", 0, "scheduler shards (0 = min(4, GOMAXPROCS))")
		queueDepth = flag.Int("queue", 64, "job queue depth per shard")
		jobTimeout = flag.Duration("job-timeout", 5*time.Minute, "per-job simulation timeout")
		parallel   = flag.Int("sim-parallel", 0, "simulator workers per job (0 = GOMAXPROCS/shards)")
		drain      = flag.Duration("drain", 30*time.Second, "shutdown drain budget for queued and in-flight jobs")
		targetRel  = flag.Float64("target-rel", 0, "server-wide adaptive default: requests with no trial budget and no target of their own stop at this relative CI half-width (0 = off)")
		maxTrials  = flag.Int("max-trials", 0, "clamp every request's trial budget, fixed or adaptive (0 = no cap)")
		biasMode   = flag.String("bias", "off", "server-wide rare-event default: horizon-censored requests that don't choose a bias mode run importance-sampled — auto (model-chosen boost) or an explicit factor >= 1 (off = plain Monte Carlo)")
		logLevel   = flag.String("log-level", "info", "log verbosity: debug, info, warn, or error (healthz/metrics traffic logs at debug)")
		debugAddr  = flag.String("debug-addr", "", "serve net/http/pprof on this separate address (empty = disabled; never exposed on -addr)")
		cacheDir   = flag.String("cache-dir", "", "persistent result-store directory layered under the in-memory cache (empty = memory only); a warm dir survives restarts and replays bit-identical bytes")
		cacheDisk  = flag.Int64("cache-disk-bytes", 1<<30, "disk-store GC bound in file bytes (0 = unbounded); least-recently-used entries are deleted over this")
	)
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "ltsimd: -log-level %q: %v\n", *logLevel, err)
		os.Exit(2)
	}
	logger := slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	bias, err := parseBias(*biasMode)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ltsimd:", err)
		os.Exit(2)
	}

	var diskStore *store.DiskStore
	if *cacheDir != "" {
		if diskStore, err = store.OpenDisk(*cacheDir, *cacheDisk); err != nil {
			fmt.Fprintln(os.Stderr, "ltsimd:", err)
			os.Exit(2)
		}
		logger.Info("disk store open", "dir", *cacheDir, "entries", diskStore.Len(), "max_bytes", *cacheDisk)
	}

	if err := run(*addr, *debugAddr, *drain, logger, service.Config{
		CacheSize:        *cacheSize,
		Shards:           *shards,
		QueueDepth:       *queueDepth,
		JobTimeout:       *jobTimeout,
		SimParallel:      *parallel,
		DefaultTargetRel: *targetRel,
		MaxTrialsCap:     *maxTrials,
		DefaultBias:      bias,
		Logger:           logger,
		Store:            diskStore,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "ltsimd:", err)
		os.Exit(1)
	}
}

// parseBias maps the -bias policy flag onto service.Config.DefaultBias:
// 0 off, sim.AutoBias for the model-chosen factor, an explicit β >= 1
// otherwise.
func parseBias(v string) (float64, error) {
	switch v {
	case "", "off":
		return 0, nil
	case "auto":
		return sim.AutoBias, nil
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil || math.IsNaN(f) || math.IsInf(f, 0) || f < 1 {
		return 0, fmt.Errorf("-bias %q must be off, auto, or a factor >= 1", v)
	}
	return f, nil
}

// debugMux returns a mux serving only the pprof surface. Handlers are
// registered explicitly rather than through net/http/pprof's
// DefaultServeMux side effects, so profiling exists only on the debug
// listener and the public mux stays clean.
func debugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func run(addr, debugAddr string, drain time.Duration, logger *slog.Logger, cfg service.Config) error {
	svc := service.New(cfg)
	srv := &http.Server{Addr: addr, Handler: svc.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", addr)
		errc <- srv.ListenAndServe()
	}()

	var dbgSrv *http.Server
	if debugAddr != "" {
		dbgSrv = &http.Server{Addr: debugAddr, Handler: debugMux()}
		go func() {
			logger.Info("pprof listening", "addr", debugAddr)
			if err := dbgSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("pprof listener failed", "addr", debugAddr, "err", err.Error())
			}
		}()
	}

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	logger.Info("shutting down, draining jobs", "drain", drain.String())
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		logger.Warn("http shutdown", "err", err.Error())
	}
	if dbgSrv != nil {
		dbgSrv.Shutdown(shutdownCtx)
	}
	if err := svc.Shutdown(shutdownCtx); err != nil {
		logger.Warn("drain budget exhausted, in-flight jobs aborted", "err", err.Error())
	} else {
		logger.Info("drained cleanly")
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
