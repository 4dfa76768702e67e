package sim

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faults"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/trace"
)

// DefaultBatchSize is the accumulator merge granularity when
// Options.BatchSize is zero. Adaptive stopping decisions happen only at
// batch boundaries, so this value is part of an adaptive result's
// identity (and of its canonical fingerprint); fixed-trial results do
// not depend on it.
const DefaultBatchSize = 256

// Options control a Monte Carlo estimation run.
type Options struct {
	// Trials is the number of independent trials (required, >= 2). In
	// adaptive mode (TargetRelWidth > 0) it is instead the minimum trial
	// count before the stopping rule may fire, and may be left 0.
	Trials int
	// Horizon censors each trial at this many hours. 0 runs every trial
	// to data loss — only affordable when the configured MTTDL is not
	// astronomically beyond the fault scales.
	Horizon float64
	// Seed fixes the run's randomness; the same seed, config, and trial
	// count reproduce results exactly, regardless of parallelism.
	Seed uint64
	// Parallel is the worker count; 0 means GOMAXPROCS. Workers claim
	// whole batches, so Parallel is effectively clamped to the batch
	// count: for fixed runs with a defaulted BatchSize the granularity
	// shrinks to keep every worker busy (results are batch-size
	// invariant there), while adaptive runs and explicit BatchSize cap
	// useful workers at ceil(budget/BatchSize).
	Parallel int
	// Level is the confidence level for intervals, in (0,1); 0 defaults
	// to 0.95. Estimate rejects any other out-of-range value.
	Level float64

	// TargetRelWidth, when positive, switches the run to adaptive
	// (precision-targeted) mode: the run stops at the first batch
	// boundary where the stopping interval's relative half-width is at
	// or below this target — the LossProb Wilson interval when Horizon
	// is set, else the MTTDL Student-t interval over observed loss
	// times. Because the decision is evaluated only at deterministic
	// batch boundaries, over batches merged in index order, an adaptive
	// run is a pure function of (config, seed, target, MaxTrials,
	// BatchSize) — worker count never changes the answer. Work past
	// the stop is thrown away (sim_trials_discarded_total counts it):
	// the stop is known the moment the stopping batch merges, a batch
	// in progress then is abandoned within one trial, and batches
	// finished ahead of the stopping one are dropped. While the workers
	// keep pace, that is about (Parallel−1)·BatchSize trials; with more
	// workers than cores, where a stalled worker would let the others
	// run ahead, no worker starts a batch Parallel or more batches past
	// the merged prefix, so that is the most a stop discards.
	TargetRelWidth float64
	// MaxTrials caps an adaptive run's trial budget; 0 defaults to
	// 1<<20. Ignored in fixed-trial mode.
	MaxTrials int
	// BatchSize is the number of trials folded into one per-worker
	// accumulator between merges; 0 defaults to DefaultBatchSize. Fixed
	// trial runs are batch-size-invariant; adaptive runs stop only at
	// multiples of it.
	BatchSize int

	// Bias enables importance-sampled failure biasing for rare-event
	// runs: while any replica has an outstanding fault, every armed
	// fault hazard is multiplied by β, and each trial carries the
	// likelihood-ratio weight that corrects the estimate back to the
	// true measure. 0 (the default) runs plain Monte Carlo,
	// bit-identical to historical behavior. AutoBias asks the analytic
	// model to choose β from the configuration's regime; any finite
	// value >= 1 is used as β directly. Biased runs require a censoring
	// Horizon and estimate LossProb with the Horvitz–Thompson weighted
	// estimator; adaptive stopping then targets the weighted CI.
	Bias float64
}

// adaptive reports whether the sequential stopping rule is active.
func (o Options) adaptive() bool { return o.TargetRelWidth > 0 }

// budget returns the run's maximum trial count.
func (o Options) budget() int {
	if o.adaptive() {
		return o.MaxTrials
	}
	return o.Trials
}

func (o Options) withDefaults() Options {
	if o.Parallel <= 0 {
		o.Parallel = runtime.GOMAXPROCS(0)
	}
	if o.Level == 0 {
		o.Level = 0.95
	}
	if o.BatchSize <= 0 {
		o.BatchSize = DefaultBatchSize
	}
	if o.adaptive() && o.MaxTrials == 0 {
		o.MaxTrials = 1 << 20
	}
	return o
}

// admit is the rule a run must pass: the options with their defaults
// filled in, each in range, and no failure biasing over a hazard
// profile. EstimateStream and the canonical key both apply it, so a
// request that gets a key can run, and one that cannot gets the same
// error from either. cfg must already be valid.
func admit(cfg *Config, o Options) (Options, error) {
	o = o.withDefaults()
	if o.Horizon < 0 || math.IsNaN(o.Horizon) {
		return o, fmt.Errorf("%w: horizon %v must be >= 0", ErrInvalidConfig, o.Horizon)
	}
	if math.IsNaN(o.Level) || o.Level <= 0 || o.Level >= 1 {
		return o, fmt.Errorf("%w: confidence level %v must be in (0,1)", ErrInvalidConfig, o.Level)
	}
	if math.IsNaN(o.TargetRelWidth) || o.TargetRelWidth < 0 || math.IsInf(o.TargetRelWidth, 1) {
		return o, fmt.Errorf("%w: target relative width %v must be a finite value >= 0", ErrInvalidConfig, o.TargetRelWidth)
	}
	if math.IsNaN(o.Bias) || math.IsInf(o.Bias, 0) || (o.Bias != 0 && o.Bias != AutoBias && o.Bias < 1) {
		return o, fmt.Errorf("%w: bias %v must be 0 (off), AutoBias, or a finite factor >= 1", ErrInvalidConfig, o.Bias)
	}
	if o.Bias != 0 && o.Horizon <= 0 {
		return o, fmt.Errorf("%w: bias requires a censoring horizon", ErrInvalidConfig)
	}
	if o.adaptive() {
		if o.MaxTrials < 2 {
			return o, fmt.Errorf("%w: %d max trials, need >= 2", ErrInvalidConfig, o.MaxTrials)
		}
		if o.Trials < 0 || o.Trials > o.MaxTrials {
			return o, fmt.Errorf("%w: minimum trials %d must be in [0, max trials %d]", ErrInvalidConfig, o.Trials, o.MaxTrials)
		}
	} else if o.Trials < 2 {
		return o, fmt.Errorf("%w: %d trials, need >= 2", ErrInvalidConfig, o.Trials)
	}
	if o.Bias != 0 && cfg.HasHazard() {
		return o, fmt.Errorf("%w: failure biasing is incompatible with hazard profiles (likelihood-ratio exposure assumes constant armed rates)", ErrInvalidConfig)
	}
	return o, nil
}

// DoubleFaultMatrix counts loss events by (first fault, final fault)
// class — the empirical version of the paper's Figure 2.
type DoubleFaultMatrix struct {
	// Losses[first][final] counts losses whose fatal window was opened
	// by a `first`-class fault and closed by a `final`-class one.
	Losses [2][2]int
	// WOVByVis and WOVByLat count windows of vulnerability opened by
	// each class (the denominators for conditional loss probabilities).
	WOVByVis, WOVByLat int
}

// ConditionalLossProb returns the estimated probability that a window
// opened by `first` ends in loss completed by `final` — the Monte Carlo
// counterpart of eqs 3–6.
func (m DoubleFaultMatrix) ConditionalLossProb(first, final faults.Type) float64 {
	wov := m.WOVByVis
	if first == faults.Latent {
		wov = m.WOVByLat
	}
	if wov == 0 {
		return math.NaN()
	}
	return float64(m.Losses[first][final]) / float64(wov)
}

// Estimate is the outcome of a Monte Carlo run.
type Estimate struct {
	// MTTDL is the mean time to data loss in hours with its confidence
	// interval. With censoring (Horizon > 0 and censored trials
	// present), this is the Kaplan–Meier restricted mean, a lower bound
	// on the true MTTDL, and the interval degrades to the uncensored
	// subset's t-interval.
	MTTDL stats.Interval
	// LossProb is P(data loss within Horizon) with its Wilson interval.
	// Only meaningful when Horizon > 0.
	LossProb stats.Interval
	// Survival is the Kaplan–Meier curve over the trials. It is fitted
	// on read: it keeps the run's observations, and is fitted, to the
	// same bits as an eager fit, the first time one of its methods is
	// called. A censored unbiased run reads its restricted mean for
	// MTTDL, so its curve comes back fitted.
	Survival *stats.KaplanMeier
	// Trials and Censored count the run's outcomes. In adaptive mode
	// Trials is the realized count at the stopping boundary.
	Trials, Censored int
	// Stats aggregates event counts over all trials.
	Stats TrialStats
	// Matrix is the empirical Figure 2 double-fault matrix.
	Matrix DoubleFaultMatrix
	// Bias is the resolved failure-biasing factor β the run sampled
	// under: 0 for an unbiased run, the model-chosen value for
	// Options.Bias == AutoBias, the explicit factor otherwise.
	Bias float64
	// EffectiveSamples is the effective loss count (Σwy)²/Σ(wy)² of the
	// weighted loss indicator in a biased run — the equal-weight number
	// of observed losses carrying the same information. 0 for unbiased
	// runs.
	EffectiveSamples float64
	// LossProbCV is the control-variate refinement of LossProb in a
	// biased run: the Horvitz–Thompson estimate regression-adjusted
	// against the likelihood-ratio weight, whose expectation is exactly
	// 1 under the biased measure (stats.WeightedProportion.
	// ControlVariateCI). Asymptotically never wider than LossProb; a
	// diagnostic companion, not the primary estimate — LossProb drives
	// adaptive stopping and the wire encodings. Zero for unbiased runs.
	LossProbCV stats.Interval
}

// Progress is a point-in-time snapshot of a streaming estimation run,
// emitted by EstimateStream at batch boundaries. Snapshots are
// observational: consuming or ignoring them never changes the run's
// result.
type Progress struct {
	// Trials is the number of trials folded so far; Batches the number
	// of merged batches.
	Trials, Batches int
	// Losses and Censored split the folded trials by outcome.
	Losses, Censored int
	// MTTDL is the provisional Student-t interval over observed loss
	// times (zero until two losses have been seen).
	MTTDL stats.Interval
	// LossProb is the provisional Wilson interval; meaningful only for
	// horizon-censored runs.
	LossProb stats.Interval
	// RelWidth is the stopping criterion's current relative half-width
	// (+Inf while not yet estimable); TargetRelWidth echoes the target
	// (0 in fixed-trial mode).
	RelWidth, TargetRelWidth float64
	// Budget is the run's maximum trial count (Trials, or MaxTrials in
	// adaptive mode).
	Budget int
	// EffectiveSamples is the weighted estimator's effective loss count
	// so far; 0 in unbiased runs.
	EffectiveSamples float64
	// Final marks the last snapshot of a completed run.
	Final bool
}

// Runner executes Monte Carlo estimations of a configuration.
type Runner struct {
	cfg Config
	// specs caches cfg.ReplicaSpecs() so the per-trial hot path skips
	// the expansion.
	specs []ReplicaSpec
	// replay, when non-nil (NewReplayRunner), substitutes recorded
	// per-trial fault streams for the sampled fault processes. See
	// replay.go.
	replay *replayData
}

// NewRunner validates the configuration and returns a Runner.
func NewRunner(cfg Config) (*Runner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Runner{cfg: cfg, specs: cfg.ReplicaSpecs()}, nil
}

// trialStreamLabel offsets trial indices into the derivation label
// space, keeping trial streams disjoint from other derived subsystems.
const trialStreamLabel = 0x517cc1b727220a95

// RunTrial executes one trial with the stream derived from (seed, index)
// and returns its result. Exposed for replaying individual trials.
func (r *Runner) RunTrial(seed, index uint64, horizon float64) TrialResult {
	t := allocTrial(&r.cfg, r.specs, nil)
	t.start(rng.New(seed).Derive(index + trialStreamLabel))
	return t.run(horizon)
}

// Estimate runs opt.Trials independent trials and aggregates them.
func (r *Runner) Estimate(opt Options) (Estimate, error) {
	return r.EstimateStream(context.Background(), opt, nil)
}

// batchState is the shared state of one streaming run. Workers claim
// batch indices from next, and the worker that finishes a batch folds
// it: under mu it merges every batch that is now next in index order
// into global, applies the stopping rule at each boundary, and emits
// progress.
type batchState struct {
	opt       Options
	minTrials int
	sink      func(Progress)
	rec       *[]trace.Event
	m         *runMetrics
	pool      sync.Pool

	// next is the atomic claim counter: workers take batch indices from
	// it instead of draining a pre-filled O(Trials) work channel.
	next atomic.Int64
	// stopAt is the first batch index that will not be merged. It
	// begins at the batch count and only shrinks, the moment a fold
	// meets the stopping rule; workers read it before every trial.
	stopAt atomic.Int64
	// discarded counts trials simulated in batches the stop made
	// unmergeable.
	discarded atomic.Int64
	// window, when positive, is how many batches past the merged prefix
	// a worker may start: set for an adaptive run with more workers than
	// cores, where a worker the scheduler favours would otherwise run
	// far ahead and the stop would discard its batches. Workers held
	// back wait on gate, which every fold and every leaving worker wakes.
	window int
	gate   *sync.Cond

	mu      sync.Mutex
	pending map[int]*accumulator
	folded  int
	global  accumulator
	// panicked holds the first worker panic, re-raised by the caller.
	panicked any
}

// bounds returns batch b's trial index range.
func (s *batchState) bounds(b int) (lo, hi int) {
	lo = b * s.opt.BatchSize
	return lo, min(lo+s.opt.BatchSize, s.opt.budget())
}

// work is one worker: it claims batches, runs their trials into a batch
// accumulator and folds each finished batch. It returns when no batch
// is left to start, when done is closed, or as soon as the stop makes
// its batch unmergeable, which is checked before every trial.
func (s *batchState) work(r *Runner, done <-chan struct{}) {
	defer s.leave()
	opt := s.opt
	base := rng.New(opt.Seed)
	var trialSrc rng.Source
	t := allocTrial(&r.cfg, r.specs, nil)
	t.setBiasFactor(opt.Bias)
	if opt.Horizon > 0 {
		// Censored trials never run past the horizon, so the engine
		// parks what is scheduled beyond it (exact; see
		// des.Engine.SetHorizon).
		t.eng.SetHorizon(opt.Horizon)
	}
	// A trial polls done as it runs, so even one that never ends is
	// cancelled.
	t.eng.SetDone(done)
	if r.replay != nil {
		t.replay = &replaySchedule{pinRepairs: r.replay.pinRepairs}
	}
	if s.rec != nil {
		t.trace = &Trace{}
	}
	for {
		b := s.next.Add(1) - 1
		if b >= s.stopAt.Load() || s.window > 0 && !s.admit(int(b), done) {
			return
		}
		lo, hi := s.bounds(int(b))
		acc := s.pool.Get().(*accumulator)
		acc.reset()
		acc.batch = int(b)
		acc.weighted = opt.Bias != 0
		for i := lo; i < hi; i++ {
			if b >= s.stopAt.Load() {
				s.discarded.Add(int64(acc.trials))
				s.pool.Put(acc)
				return
			}
			select {
			case <-done:
				return
			default:
			}
			base.DeriveInto(uint64(i)+trialStreamLabel, &trialSrc)
			if r.replay != nil {
				t.replay.events = r.replay.TrialEvents(i)
			}
			t.start(&trialSrc)
			res := t.run(opt.Horizon)
			select {
			case <-done: // the trial may have been cut short
				return
			default:
			}
			acc.addTrial(res, opt.Horizon)
			if s.rec != nil {
				acc.events = recordEvents(acc.events, i, t.trace)
			}
		}
		s.fold(acc)
	}
}

// admit holds a worker that claimed batch b until b is fewer than
// window batches past the merged prefix, so a stop discards at most
// (window−1)·BatchSize trials. It reports false if the run stopped at or
// before b, or was cancelled, meanwhile.
func (s *batchState) admit(b int, done <-chan struct{}) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for b >= s.folded+s.window {
		select {
		case <-done:
			return false
		default:
		}
		if int64(b) >= s.stopAt.Load() {
			return false
		}
		s.gate.Wait()
	}
	return true
}

// fold hands a finished batch to the in-order merge and merges every
// batch that is now next, deciding the stop and emitting progress at
// each merged boundary.
func (s *batchState) fold(acc *accumulator) {
	s.mu.Lock()
	defer s.mu.Unlock()
	stop := int(s.stopAt.Load())
	if acc.batch >= stop {
		s.discarded.Add(int64(acc.trials))
		s.pool.Put(acc)
		return
	}
	s.pending[acc.batch] = acc
	for s.folded < stop {
		nb, ok := s.pending[s.folded]
		if !ok {
			break
		}
		delete(s.pending, s.folded)
		s.global.merge(nb)
		if s.rec != nil {
			*s.rec = append(*s.rec, nb.events...)
		}
		if s.m != nil {
			s.m.trials.Add(uint64(nb.trials))
			s.m.batches.Inc()
		}
		s.pool.Put(nb)
		s.folded++
		if s.opt.adaptive() && s.folded < stop && s.global.trials >= s.minTrials {
			width := s.global.stopWidth(s.opt)
			if s.m != nil && !math.IsInf(width, 1) {
				s.m.relWidth.Observe(width)
			}
			if width <= s.opt.TargetRelWidth {
				stop = s.folded
				s.stopAt.Store(int64(stop))
				if s.m != nil {
					s.m.stoppedEarly.Inc()
				}
				// Every batch still pending lies past the stop.
				for b, p := range s.pending {
					s.discarded.Add(int64(p.trials))
					delete(s.pending, b)
					s.pool.Put(p)
				}
			}
		}
		if s.sink != nil && s.folded < stop {
			s.sink(s.global.snapshot(s.opt, s.folded, s.opt.budget()))
		}
	}
	if s.window > 0 {
		s.gate.Broadcast()
	}
}

// leave runs as a worker exits. It turns a panic, the worker's own or
// the sink's, into a stop at batch 0 that the calling goroutine
// re-raises once every worker has left, and wakes the workers admit
// holds back, which may have waited on this one's batch.
func (s *batchState) leave() {
	p := recover()
	if p == nil && s.window == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if p != nil {
		if s.panicked == nil {
			s.panicked = fmt.Sprintf("sim: estimation worker panicked: %v\n%s", p, debug.Stack())
		}
		s.stopAt.Store(0)
	}
	if s.window > 0 {
		s.gate.Broadcast()
	}
}

// EstimateStream is the streaming estimation core: workers fold trials
// into per-batch accumulators which merge at deterministic batch
// boundaries, so memory is O(batch) rather than O(trials) and the run
// can be observed while it executes. Every other estimation entry point
// is a thin wrapper over it.
//
// The calling goroutine is one of the opt.Parallel workers, and the
// worker that finishes a batch merges it and any batches it unblocks.
// sink, when non-nil, receives a Progress snapshot after each merged
// batch from whichever worker goroutine merged it, under the run's
// merge lock: calls are serialized and in batch order. The Final
// snapshot comes from the calling goroutine, and no call happens after
// EstimateStream returns. When opt.TargetRelWidth is set the sequential
// stopping rule runs at each boundary (see Options.TargetRelWidth for
// the determinism contract). ctx is checked before every trial and
// every 1024 events within one, so a cancelled or timed-out run returns
// an error wrapping ctx's error promptly even when a single trial would
// never end; cancellation never changes the trial-to-stream mapping,
// only whether the run finishes. A panic in a worker or in sink stops
// the run and is re-raised on the calling goroutine.
func (r *Runner) EstimateStream(ctx context.Context, opt Options, sink func(Progress)) (Estimate, error) {
	return r.stream(ctx, opt, sink, nil)
}

// stream is EstimateStream with a recording hook: when rec is non-nil,
// each batch accumulator also carries its trials' replayable events
// (recordEvents), and the merge appends them to *rec in batch order, so
// the recorded stream is in trial order at any Parallel. Recording only
// observes the trials; it never changes what they draw.
func (r *Runner) stream(ctx context.Context, opt Options, sink func(Progress), rec *[]trace.Event) (Estimate, error) {
	batchSet := opt.BatchSize > 0
	opt, err := admit(&r.cfg, opt)
	if err != nil {
		return Estimate{}, err
	}
	if err := r.validateReplay(opt); err != nil {
		return Estimate{}, err
	}
	// Resolve the biasing factor once, so workers, the stopping rule,
	// and the final Estimate all see the same effective β. An active
	// Bias — even one that resolves to β = 1 — switches the run to the
	// weighted estimator; only Bias == 0 is the historical path.
	if opt.Bias != 0 {
		opt.Bias = resolveBias(&r.cfg, opt.Horizon, opt.Bias)
	}
	// Batches are both the work-claim unit and the merge boundary, so a
	// small fixed run under the default batch size would idle most
	// workers (1000 trials / 256 = 4 claimable units). Fixed-trial
	// results are batch-size invariant (golden_test.go pins it), so
	// shrink the default granularity to keep every worker busy; explicit
	// BatchSize and adaptive runs — where the boundary is part of the
	// result's identity — are left alone.
	if !opt.adaptive() && !batchSet {
		if per := (opt.budget() + opt.Parallel - 1) / opt.Parallel; per < opt.BatchSize {
			opt.BatchSize = per
		}
	}
	// Telemetry is recorded here and at merged batch boundaries, never
	// per trial, so instrumentation cannot perturb results or
	// meaningfully cost the hot path.
	m := metricsPtr.Load()
	if m != nil {
		m.runs.Inc()
		if opt.adaptive() {
			m.runsAdaptive.Inc()
		}
		if opt.Bias != 0 {
			m.biasedRuns.Inc()
		}
		runStart := time.Now()
		defer func() { m.runSeconds.Observe(time.Since(runStart).Seconds()) }()
	}
	numBatches := (opt.budget() + opt.BatchSize - 1) / opt.BatchSize
	// Clamp oversubscription: beyond one worker per batch (and never
	// more than one per trial) extra workers could not claim any work.
	if opt.Parallel > numBatches {
		opt.Parallel = numBatches
	}
	s := &batchState{
		opt:       opt,
		minTrials: max(opt.Trials, 2),
		sink:      sink,
		rec:       rec,
		m:         m,
		pool:      sync.Pool{New: func() any { return new(accumulator) }},
		pending:   make(map[int]*accumulator),
	}
	s.stopAt.Store(int64(numBatches))
	s.global.weighted = opt.Bias != 0
	if opt.adaptive() && opt.Parallel > runtime.GOMAXPROCS(0) {
		s.window = opt.Parallel
		s.gate = sync.NewCond(&s.mu)
	}

	done := ctx.Done()
	var wg sync.WaitGroup
	for w := 1; w < opt.Parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.work(r, done)
		}()
	}
	s.work(r, done)
	wg.Wait()
	if s.panicked != nil {
		panic(s.panicked)
	}
	if m != nil {
		m.trialsDiscarded.Add(uint64(s.discarded.Load()))
	}
	if err := ctx.Err(); err != nil {
		return Estimate{}, fmt.Errorf("sim: estimation aborted: %w", err)
	}
	if target := int(s.stopAt.Load()); s.folded != target {
		return Estimate{}, fmt.Errorf("sim: internal: merged %d of %d batches", s.folded, target)
	}

	// The Final frame is read before finalize hands the observations to
	// the Estimate.
	var final Progress
	if sink != nil {
		final = s.global.snapshot(opt, s.folded, opt.budget())
		final.Final = true
	}
	est, err := s.global.finalize(opt)
	if err != nil {
		return Estimate{}, err
	}
	if m != nil && opt.Bias != 0 {
		m.effSamples.Observe(est.EffectiveSamples)
	}
	if sink != nil {
		sink(final)
	}
	return est, nil
}
