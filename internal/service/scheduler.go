package service

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"log/slog"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// Scheduler errors.
var (
	// ErrQueueFull reports that the job's shard queue is at capacity —
	// the backpressure signal the HTTP layer maps to 503.
	ErrQueueFull = errors.New("service: shard queue full")
	// ErrShuttingDown reports a submission after shutdown began.
	ErrShuttingDown = errors.New("service: scheduler shutting down")
	// errJobPanicked is the error of a job whose function panicked.
	errJobPanicked = errors.New("service: job panicked")
)

// job is one unit of scheduled work: compute bytes for a key. It is
// the queued half of a flight call; duplicate submissions of an
// in-flight key join the call instead of queueing a second job.
type job struct {
	call *Call[[]byte]
	fn   func(context.Context) ([]byte, error)
	// enqueued timestamps admission, for the queue-wait histogram.
	enqueued time.Time
	// trace is the submitting request's span timeline (nil when the
	// submitter carries none); the worker marks "running" on it and
	// threads it into the job context so compute code can mark later
	// stages. Coalesced waiters share the owner's spans.
	trace *telemetry.Trace
}

// shard is one scheduler partition: a bounded queue, one worker, and the
// flight table for keys currently queued or running here. Keys hash to
// shards, so all duplicates of a key meet in the same table and its lock
// never contends across shards.
type shard struct {
	queue  chan *job
	flight Flight[[]byte]
	// completed, failed, timeouts and panicked are the shard's job
	// outcome counts, the only copy: /stats sums them across shards and
	// /metrics reads them per shard. A timed-out or panicked job is also
	// failed.
	completed, failed, timeouts, panicked atomic.Uint64
	// queueWait and runDur are the shard's pre-resolved histogram
	// handles; nil until scheduler.instrument runs (always before
	// traffic in a Service).
	queueWait, runDur *telemetry.Histogram
}

// scheduler fans jobs out across key-hashed shards with per-job
// timeouts, graceful draining, and aggregate stats.
type scheduler struct {
	shards  []*shard
	timeout time.Duration

	baseCtx context.Context
	cancel  context.CancelFunc
	quit    chan struct{}
	workers sync.WaitGroup
	// mu makes the closed transition atomic with respect to job
	// admission: Submit holds the read side across its check-and-Add, so
	// once Shutdown flips closed under the write lock, every admitted
	// job is already counted in jobs and jobs.Wait() races with nothing.
	mu     sync.RWMutex
	jobs   sync.WaitGroup
	closed bool

	inflight atomic.Int64
	// logger receives a panicking job's stack; nil logs nothing.
	logger *slog.Logger
}

// instrument registers the scheduler metric families: per-shard queue
// depth gauges, queue-wait and run-duration histograms, and
// completed/failed/timeout/panicked counters read from the shards' own
// counts.
// Called once by Service.New before any Submit.
func (s *scheduler) instrument(reg *telemetry.Registry) {
	queueWait := reg.HistogramVec("ltsimd_sched_queue_wait_seconds",
		"Time jobs spend queued before a shard worker starts them.", telemetry.DurationBuckets, "shard")
	runDur := reg.HistogramVec("ltsimd_sched_run_seconds",
		"Job execution time on a shard worker.", telemetry.DurationBuckets, "shard")
	completed := reg.CounterVec("ltsimd_sched_jobs_completed_total",
		"Jobs that finished successfully.", "shard")
	failed := reg.CounterVec("ltsimd_sched_jobs_failed_total",
		"Jobs that returned an error (timeouts and panics included).", "shard")
	timeouts := reg.CounterVec("ltsimd_sched_jobs_timeout_total",
		"Jobs aborted by the per-job timeout.", "shard")
	panicked := reg.CounterVec("ltsimd_sched_jobs_panicked_total",
		"Jobs whose computation panicked (failed alone; the daemon stays up).", "shard")
	depth := reg.GaugeVec("ltsimd_sched_queue_depth",
		"Jobs queued (not yet running) per shard.", "shard")
	reg.GaugeFunc("ltsimd_sched_inflight", "Jobs currently executing across all shards.", func() float64 {
		return float64(s.inflight.Load())
	})
	for i, sh := range s.shards {
		label := strconv.Itoa(i)
		sh.queueWait = queueWait.With(label)
		sh.runDur = runDur.With(label)
		completed.Func(sh.completed.Load, label)
		failed.Func(sh.failed.Load, label)
		timeouts.Func(sh.timeouts.Load, label)
		panicked.Func(sh.panicked.Load, label)
		q := sh.queue
		depth.Func(func() float64 { return float64(len(q)) }, label)
	}
}

// newScheduler starts nShards workers, one per shard.
func newScheduler(nShards, queueDepth int, timeout time.Duration) *scheduler {
	ctx, cancel := context.WithCancel(context.Background())
	s := &scheduler{
		shards:  make([]*shard, nShards),
		timeout: timeout,
		baseCtx: ctx,
		cancel:  cancel,
		quit:    make(chan struct{}),
	}
	for i := range s.shards {
		sh := &shard{queue: make(chan *job, queueDepth)}
		s.shards[i] = sh
		s.workers.Add(1)
		go s.work(sh)
	}
	return s
}

// shardFor hashes a key onto its shard.
func (s *scheduler) shardFor(key string) *shard {
	h := fnv.New32a()
	h.Write([]byte(key))
	return s.shards[h.Sum32()%uint32(len(s.shards))]
}

// work is one shard's worker loop.
func (s *scheduler) work(sh *shard) {
	defer s.workers.Done()
	for {
		select {
		case j := <-sh.queue:
			s.run(sh, j)
		case <-s.quit:
			// Drain whatever is still queued so no waiter blocks
			// forever; post-shutdown jobs fail fast on the cancelled
			// base context.
			for {
				select {
				case j := <-sh.queue:
					s.run(sh, j)
				default:
					return
				}
			}
		}
	}
}

// run executes one job under the per-job timeout and publishes its
// outcome.
func (s *scheduler) run(sh *shard, j *job) {
	wait := time.Since(j.enqueued)
	j.trace.Mark("running")
	s.inflight.Add(1)
	start := time.Now()
	ctx, cancel := context.WithTimeout(s.baseCtx, s.timeout)
	val, err := s.call(telemetry.WithTrace(ctx, j.trace), sh, j)
	cancel()
	s.inflight.Add(-1)
	if err != nil {
		sh.failed.Add(1)
		if errors.Is(err, context.DeadlineExceeded) {
			sh.timeouts.Add(1)
		}
	} else {
		sh.completed.Add(1)
	}
	if sh.queueWait != nil {
		sh.queueWait.Observe(wait.Seconds())
		sh.runDur.Observe(time.Since(start).Seconds())
	}
	sh.flight.Finish(j.call, val, err)
	s.jobs.Done()
}

// call runs j's function. A panic fails the job alone: it is counted,
// its value and stack are logged, and the job fails with
// errJobPanicked, which the HTTP layer answers with 500 without
// revealing either.
func (s *scheduler) call(ctx context.Context, sh *shard, j *job) (val []byte, err error) {
	defer func() {
		if p := recover(); p != nil {
			sh.panicked.Add(1)
			if s.logger != nil {
				s.logger.Error("job panicked", "panic", fmt.Sprint(p), "stack", string(debug.Stack()))
			}
			val, err = nil, errJobPanicked
		}
	}()
	return j.fn(ctx)
}

// Submit schedules fn under key and waits for its result. Duplicate
// in-flight keys share one execution (all waiters get the same bytes).
// ctx cancels the *wait*, not the job: an abandoned job still completes
// and can populate the cache.
func (s *scheduler) Submit(ctx context.Context, key string, fn func(context.Context) ([]byte, error)) ([]byte, error) {
	c, _, err := s.enqueue(ctx, key, fn)
	if err != nil {
		return nil, err
	}
	return c.Wait(ctx)
}

// enqueue admits fn under key without waiting for it, reporting whether
// the call joined an already queued or running job for the same key
// (the "dedup" cache outcome) instead of queueing its own. The owner's
// context trace rides into the job, so the worker's "running" and the
// compute path's later marks land on the originating request's
// timeline.
func (s *scheduler) enqueue(ctx context.Context, key string, fn func(context.Context) ([]byte, error)) (*Call[[]byte], bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, false, ErrShuttingDown
	}
	sh := s.shardFor(key)
	return sh.flight.Join(ctx, key, func(c *Call[[]byte]) error {
		select {
		case sh.queue <- &job{call: c, fn: fn, enqueued: time.Now(), trace: telemetry.TraceFrom(ctx)}:
			s.jobs.Add(1)
			return nil
		default:
			return ErrQueueFull
		}
	})
}

// SchedulerStats is a point-in-time scheduler snapshot. Timeouts and
// Panicked are additive; the earlier fields keep their names and
// positions.
type SchedulerStats struct {
	Shards     int    `json:"shards"`
	QueueDepth int    `json:"queue_depth"`
	Inflight   int64  `json:"inflight"`
	Completed  uint64 `json:"completed"`
	Failed     uint64 `json:"failed"`
	Timeouts   uint64 `json:"timeouts"`
	Panicked   uint64 `json:"panicked"`
}

// Stats snapshots the scheduler counters. QueueDepth and the outcome
// counts sum the shards' own.
func (s *scheduler) Stats() SchedulerStats {
	st := SchedulerStats{Shards: len(s.shards), Inflight: s.inflight.Load()}
	for _, sh := range s.shards {
		st.QueueDepth += len(sh.queue)
		st.Completed += sh.completed.Load()
		st.Failed += sh.failed.Load()
		st.Timeouts += sh.timeouts.Load()
		st.Panicked += sh.panicked.Load()
	}
	return st
}

// Shutdown stops accepting work and drains: queued and running jobs
// complete normally until ctx expires, at which point the base context
// is cancelled and the remainder abort promptly (the simulator checks
// its context before each trial and every 1024 events within one).
// Workers are always reaped before return.
func (s *scheduler) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	drained := make(chan struct{})
	go func() {
		s.jobs.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
		s.cancel() // abort in-flight simulations
		<-drained  // every job still publishes, so this is prompt
	}
	close(s.quit)
	s.workers.Wait()
	s.cancel()
	return err
}
