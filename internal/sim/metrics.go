package sim

import (
	"sync/atomic"

	"repro/internal/telemetry"
)

// runMetrics is the simulator's instrument set. Recording happens only
// at merged batch boundaries and once per run — never inside the
// per-trial worker loop — so enabling metrics costs one atomic add per
// ~BatchSize trials and cannot perturb the bit-identical determinism
// contract (snapshots are observational, and so are these counters).
type runMetrics struct {
	trials          *telemetry.Counter
	trialsDiscarded *telemetry.Counter
	batches         *telemetry.Counter
	runs            *telemetry.Counter
	runsAdaptive    *telemetry.Counter
	stoppedEarly    *telemetry.Counter
	biasedRuns      *telemetry.Counter
	runSeconds      *telemetry.Histogram
	relWidth        *telemetry.Histogram
	effSamples      *telemetry.Histogram
}

// metricsPtr is the process-wide simulator instrument set; nil (the
// default) disables recording entirely.
var metricsPtr atomic.Pointer[runMetrics]

// EnableMetrics registers the sim metric families on reg and starts
// recording every estimation run in this process into them:
// sim_trials_total and sim_batches_total give trials/sec and merge
// throughput under rate(), sim_trials_discarded_total the work adaptive
// runs simulated past their stop, sim_run_seconds the run-duration
// distribution, and sim_adaptive_rel_width the adaptive stopping
// criterion's CI-width trajectory observed at batch boundaries.
// Idempotent on one registry; calling again with a different registry
// redirects recording there.
func EnableMetrics(reg *telemetry.Registry) {
	metricsPtr.Store(&runMetrics{
		trials: reg.Counter("sim_trials_total", "Monte Carlo trials folded into merged batch accumulators."),
		trialsDiscarded: reg.Counter("sim_trials_discarded_total",
			"Monte Carlo trials simulated in batches past an adaptive run's stopping boundary, so never merged."),
		batches:      reg.Counter("sim_batches_total", "Batch accumulators merged by streaming runs."),
		runs:         reg.Counter("sim_runs_total", "Estimation runs started."),
		runsAdaptive: reg.Counter("sim_runs_adaptive_total", "Estimation runs driven by a sequential stopping rule."),
		stoppedEarly: reg.Counter("sim_runs_stopped_early_total", "Adaptive runs that met their precision target before exhausting MaxTrials."),
		biasedRuns:   reg.Counter("sim_biased_runs_total", "Estimation runs sampled under importance-sampling failure biasing."),
		runSeconds:   reg.Histogram("sim_run_seconds", "Wall-clock duration of estimation runs.", telemetry.DurationBuckets),
		relWidth: reg.Histogram("sim_adaptive_rel_width",
			"Adaptive stopping criterion's relative CI half-width at batch boundaries — the convergence trajectory.", telemetry.WidthBuckets),
		effSamples: reg.Histogram("sim_effective_sample_size",
			"Effective loss count (ESS) of completed biased runs — how many equal-weight losses the weighted estimator really saw.",
			[]float64{1, 3, 10, 30, 100, 300, 1e3, 3e3, 1e4, 3e4, 1e5}),
	})
}

// DisableMetrics detaches the simulator from any registry; estimation
// runs stop recording. Used by benchmarks measuring instrumentation
// overhead.
func DisableMetrics() { metricsPtr.Store(nil) }
