// Package service is the long-running simulation service behind cmd/ltsimd:
// the paper's what-if reliability estimator turned into a daemon that
// archives (LOCKSS-style long-term stores, capacity planners, dashboards)
// can query continuously instead of shelling out to one-shot CLI runs.
//
// Three mechanisms make repeat traffic cheap and safe:
//
//   - Canonical request hashing. Every estimate request is built into a
//     sim.Config + sim.Options pair and fingerprinted with sim.Fingerprint,
//     which canonicalizes over the *resolved* per-replica expansion: a
//     scalar-shorthand fleet and its explicit Specs form, or two requests
//     differing only in worker count, hash identically.
//
//   - A content-addressed result cache, optionally two-tiered. Responses
//     are cached as their encoded JSON bytes keyed by fingerprint in a
//     bounded in-memory LRU; with Config.Store set, a persistent
//     content-addressed store (internal/store) sits under it —
//     read-through (a memory miss probes the store, a store hit promotes
//     back into memory and serves with X-Ltsimd-Cache: disk) and
//     write-through (every computed result lands in both), so a repeat
//     query replays the exact bytes of the first answer even across
//     daemon restarts — bit-identical, which the simulator's determinism
//     guarantees is also what a recomputation would produce.
//
//   - A sharded worker-pool scheduler. Cache misses become jobs hashed
//     onto shards, each with its own bounded queue and worker; duplicate
//     in-flight keys coalesce (single-flight) on their shard, jobs run
//     under per-job contexts with a timeout, and shutdown drains queued
//     work before cancelling anything.
//
// The scheduler is the only place the service runs work. Every keyed
// answer — a plain or progress-streamed /estimate, a /sweep point, an
// /experiments/run — takes one route: cache probe, then a scheduler job,
// whose bytes are written through both cache tiers. Each answer reports
// the route's outcome the same way: "hit" or "disk" for the tier that
// answered, "miss" for the request that queued the job, "dedup" for one
// that joined a job already queued or running for its key. A progress
// request therefore shares the shard queue's admission and its 503
// backpressure, and coalesces with plain requests for the same key;
// only the job's owner streams progress frames. A job outlives the
// request that queued it: an abandoned run still completes and fills
// the cache.
//
// HTTP surface (all JSON):
//
//	POST /estimate        one estimate; X-Ltsimd-Cache:
//	                      hit|disk|miss|dedup. With "progress": true, an
//	                      NDJSON stream of progress frames at batch
//	                      boundaries (owner only) followed by a final
//	                      frame carrying the canonical result bytes
//	POST /sweep           many estimates, streamed back as NDJSON lines
//	                      in completion order, trailing summary line.
//	                      Takes {"requests": [...]} or a declarative
//	                      {"scenario": {...}} document (internal/scenario)
//	                      expanded server-side; identical fingerprints
//	                      within one batch run once ("deduped" in the
//	                      summary). One fan-out (Sweep), two backends:
//	                      this scheduler, and internal/router's ring
//	POST /scenarios/expand dry-run a scenario document: NDJSON of
//	                      expanded points with policy-effective requests
//	                      and the fingerprints a sweep would cache under
//	GET  /experiments     the registered experiment index
//	POST /experiments/run run one experiment by id (?id=E2&quick=1&seed=1)
//	GET  /healthz         liveness
//	GET  /stats           cache hit rate, queue depth, in-flight jobs
//
// Estimate requests may be adaptive ("target_rel_width", "max_trials"):
// the simulator stops at the first batch boundary where the target
// precision is met. Adaptive runs are deterministic (batch-boundary
// stopping, parallelism-independent), so they cache exactly like fixed
// runs — keyed by the canonical request including the stopping rule, not
// by the realized trial count.
package service

import (
	"log/slog"
	"runtime"
	"time"

	"repro/internal/store"
)

// Config sizes the service.
type Config struct {
	// CacheSize bounds the result cache in entries; 0 means 1024.
	CacheSize int
	// Shards is the number of scheduler shards (each with its own queue
	// and worker); 0 means min(4, GOMAXPROCS).
	Shards int
	// QueueDepth bounds each shard's job queue; 0 means 64.
	QueueDepth int
	// JobTimeout bounds one simulation job's runtime; 0 means 5 minutes.
	JobTimeout time.Duration
	// SimParallel is the per-job simulator worker count; 0 divides
	// GOMAXPROCS evenly across shards so concurrent jobs do not
	// oversubscribe the machine.
	SimParallel int
	// MaxTrialsCap, when positive, clamps every request's trial budget
	// (fixed Trials and adaptive MaxTrials alike) before the request is
	// fingerprinted — the daemon's guard against abusive budgets. The
	// cached entry is the clamped request's.
	MaxTrialsCap int
	// DefaultTargetRel, when positive, turns requests that specify
	// neither a trial count nor their own target into adaptive runs at
	// this relative half-width — "give me the answer to 5%" as the
	// server-wide default contract. Applied before fingerprinting.
	DefaultTargetRel float64
	// DefaultBias, when non-zero, applies importance-sampled failure
	// biasing to horizon-censored requests that do not choose a bias
	// mode themselves: -1 lets the analytic model pick the boost factor
	// per configuration, >= 1 fixes an explicit β. Requests without a
	// horizon are left unbiased (biasing requires one). Applied before
	// fingerprinting, so the cached entry is the biased request's.
	DefaultBias float64
	// Logger receives one structured record per request (the request ID
	// and span timeline) plus lifecycle events. Nil discards — tests and
	// library embedders stay quiet by default; the daemon passes a JSON
	// handler so the request log is NDJSON.
	Logger *slog.Logger
	// Store, when non-nil, is the persistent result tier layered under
	// the in-memory LRU: reads fall through memory to the store (a store
	// hit promotes back into memory and serves with X-Ltsimd-Cache:
	// disk), writes go through to both, and a daemon restarted over the
	// same store replays bit-identical bytes without re-simulating. The
	// service closes the store on Shutdown. cmd/ltsimd opens one here
	// from -cache-dir.
	Store *store.DiskStore
}

// withDefaults fills the zero values.
func (c Config) withDefaults() Config {
	if c.CacheSize <= 0 {
		c.CacheSize = 1024
	}
	if c.Shards <= 0 {
		c.Shards = min(4, runtime.GOMAXPROCS(0))
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 5 * time.Minute
	}
	if c.SimParallel <= 0 {
		c.SimParallel = max(1, runtime.GOMAXPROCS(0)/c.Shards)
	}
	return c
}
