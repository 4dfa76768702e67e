// Command ltsimr fronts an ltsimd cluster: a stateless router that
// expands scenarios once, consistent-hashes request fingerprints across
// N workers (bounded-load ring, virtual nodes), and coalesces duplicate
// in-flight keys cluster-wide before dispatch — so the cluster behaves
// like one big daemon whose cache warmth is the sum of its workers'.
//
//	ltsimd -addr :8361 -cache-dir /var/cache/ltsimd-a &
//	ltsimd -addr :8362 -cache-dir /var/cache/ltsimd-b &
//	ltsimr -addr :8355 -worker http://localhost:8361 -worker http://localhost:8362
//	curl -s -X POST localhost:8355/estimate -d '{"alpha":0.1,"trials":2000}'
//	curl -s -X POST localhost:8355/sweep -d '{"scenario":{"v":1,"base":{"trials":2000},"grid":[{"param":"replicas","values":[2,3,4]}]}}'
//	curl -s localhost:8355/healthz   # aggregated: ok | degraded | down
//	curl -s localhost:8355/stats     # per-node cache warmth + router counters
//	curl -s localhost:8355/metrics
//
// A worker that stops answering is ejected from the ring (its in-flight
// requests retry on the ring successor) and re-admitted automatically
// when its /healthz recovers; because ejected nodes keep their ring
// positions, recovery restores the exact key ownership — and the warm
// disk store behind it.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/router"
)

// workerList collects repeatable -worker flags.
type workerList []string

func (w *workerList) String() string { return strings.Join(*w, ",") }
func (w *workerList) Set(v string) error {
	for _, part := range strings.Split(v, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if !strings.HasPrefix(part, "http://") && !strings.HasPrefix(part, "https://") {
			part = "http://" + part
		}
		*w = append(*w, part)
	}
	return nil
}

func main() {
	var workers workerList
	var (
		addr         = flag.String("addr", ":8355", "listen address")
		vnodes       = flag.Int("vnodes", 64, "virtual nodes per worker on the hash ring")
		loadFactor   = flag.Float64("load-factor", 1.25, "bounded-load ceiling: a worker is skipped while its in-flight load exceeds this multiple of the mean")
		probe        = flag.Duration("probe", 2*time.Second, "health-probe interval (ejection and re-admission cadence)")
		probeTimeout = flag.Duration("probe-timeout", time.Second, "per-probe timeout")
		logLevel     = flag.String("log-level", "info", "log verbosity: debug, info, warn, or error")
	)
	flag.Var(&workers, "worker", "ltsimd base URL (repeatable, or comma-separated)")
	flag.Parse()

	if len(workers) == 0 {
		fmt.Fprintln(os.Stderr, "ltsimr: at least one -worker URL is required")
		os.Exit(2)
	}
	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "ltsimr: -log-level %q: %v\n", *logLevel, err)
		os.Exit(2)
	}
	logger := slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	cfg := router.Config{
		VNodes:        *vnodes,
		LoadFactor:    *loadFactor,
		ProbeInterval: *probe,
		ProbeTimeout:  *probeTimeout,
		Logger:        logger,
	}
	for _, url := range workers {
		cfg.Workers = append(cfg.Workers, router.Worker{URL: url})
	}
	rt, err := router.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ltsimr:", err)
		os.Exit(2)
	}
	defer rt.Close()

	srv := &http.Server{Addr: *addr, Handler: rt.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		logger.Info("routing", "addr", *addr, "workers", len(workers), "vnodes", *vnodes, "load_factor", *loadFactor)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "ltsimr:", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	logger.Info("shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		logger.Warn("http shutdown", "err", err.Error())
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "ltsimr:", err)
		os.Exit(1)
	}
}
