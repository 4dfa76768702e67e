package sim

import (
	"fmt"
	"math"

	"repro/internal/stats"
	"repro/internal/trace"
)

// accumulator is the mergeable reduction state of an estimation run: the
// replacement for the historical O(Trials) result slice. Workers fold
// each TrialResult into a per-batch accumulator as it completes, and
// batch accumulators merge into the run's global one in batch-index
// order, so peak memory is O(batch), not O(trials).
//
// Everything in here is either exactly mergeable (integer counters,
// Bernoulli counts, the observation multiset) or replayed in trial order
// during merge (the Welford pass over loss times, via the ObsBuffer's
// order-preserving event stream). That replay is what makes the merged
// reduction bit-identical to the historical sequential aggregation — and
// therefore independent of both worker count and batch size in
// fixed-trial mode.
type accumulator struct {
	// batch is the accumulator's batch index during streaming reduction.
	batch    int
	trials   int
	censored int
	stats    TrialStats
	matrix   DoubleFaultMatrix
	// lossTimes is only folded on the run's global accumulator:
	// merge replays each batch's loss times in trial order, keeping the
	// floating-point Welford sequence identical to a sequential run.
	lossTimes stats.Running
	lossProb  stats.Proportion
	obs       stats.ObsBuffer

	// weighted marks an importance-sampled (failure-biased) run. Batch
	// accumulators then additionally buffer each trial's
	// likelihood-ratio weight and outcome in trial order (wTrials), and
	// the global merge replays the buffers into its weighted estimators
	// during the in-order merge — the exact pattern the Welford pass
	// uses — so weighted float reductions, like unweighted ones, are
	// bit-identical at any Parallel/BatchSize.
	weighted bool
	wTrials  []weightedObs
	// wLoss and wTimes are only folded on the global accumulator: the
	// Horvitz–Thompson loss-probability estimator and the weighted
	// spread of loss times.
	wLoss  stats.WeightedProportion
	wTimes stats.WeightedMean

	// events is a recording run's batch of replayable trial events, in
	// trial order; the merge appends it to the trace in batch order.
	events []trace.Event
}

// weightedObs is one buffered trial of a biased run: its
// likelihood-ratio weight, end time, and outcome.
type weightedObs struct {
	w, t float64
	lost bool
}

// addTrial folds one trial outcome, mirroring the historical aggregation
// loop field for field.
func (a *accumulator) addTrial(res TrialResult, horizon float64) {
	a.trials++
	a.stats.add(res.Stats)
	if res.Lost {
		a.matrix.Losses[res.FirstFault][res.FinalFault]++
		a.obs.AddEvent(res.Time)
	} else {
		a.censored++
		a.obs.AddCensored(res.Time)
	}
	if horizon > 0 {
		a.lossProb.Add(res.Lost)
	}
	if a.weighted {
		a.wTrials = append(a.wTrials, weightedObs{w: res.Weight, t: res.Time, lost: res.Lost})
	}
}

// merge folds a batch accumulator into a. Called in batch-index order;
// o's loss times replay into the Welford accumulator in their original
// trial order.
func (a *accumulator) merge(o *accumulator) {
	a.trials += o.trials
	a.censored += o.censored
	a.stats.add(o.stats)
	for first := range o.matrix.Losses {
		for final := range o.matrix.Losses[first] {
			a.matrix.Losses[first][final] += o.matrix.Losses[first][final]
		}
	}
	a.lossProb.Merge(o.lossProb)
	for _, t := range o.obs.Events() {
		a.lossTimes.Add(t)
	}
	a.obs.Merge(&o.obs)
	for _, e := range o.wTrials {
		a.wLoss.Add(e.lost, e.w)
		if e.lost {
			a.wTimes.Add(e.t, e.w)
		}
	}
}

// reset empties a batch accumulator for reuse, keeping allocations.
func (a *accumulator) reset() {
	obs := a.obs
	obs.Reset()
	wt, ev := a.wTrials[:0], a.events[:0]
	*a = accumulator{obs: obs, wTrials: wt, events: ev}
}

// stopWidth returns the adaptive stopping criterion's current value: the
// relative half-width of the LossProb Wilson interval when the run is
// horizon-censored — or of the weighted Horvitz–Thompson interval in a
// biased run — else of the MTTDL Student-t interval over observed loss
// times. +Inf while the criterion is not yet estimable (no trials,
// fewer than two losses, or a zero point estimate), which simply defers
// stopping to MaxTrials.
func (a *accumulator) stopWidth(opt Options) float64 {
	if a.weighted {
		// Biased runs always have a horizon; stop on the weighted CI.
		if a.wLoss.N() == 0 {
			return math.Inf(1)
		}
		iv, err := a.wLoss.CI(opt.Level)
		if err != nil {
			return math.Inf(1)
		}
		return iv.RelativeHalfWidth()
	}
	if opt.Horizon > 0 {
		if a.lossProb.N() == 0 {
			return math.Inf(1)
		}
		iv, err := a.lossProb.CI(opt.Level)
		if err != nil {
			return math.Inf(1)
		}
		return iv.RelativeHalfWidth()
	}
	if a.lossTimes.N() < 2 {
		return math.Inf(1)
	}
	iv, err := a.lossTimes.MeanCI(opt.Level)
	if err != nil {
		return math.Inf(1)
	}
	return iv.RelativeHalfWidth()
}

// finalize turns the fully-merged reduction into an Estimate. The
// interval logic reproduces the historical aggregate() exactly. The
// Estimate's curve takes a's observations, so a must not be snapshot
// or merged afterwards.
func (a *accumulator) finalize(opt Options) (Estimate, error) {
	var est Estimate
	est.Trials = a.trials
	est.Censored = a.censored
	est.Stats = a.stats
	est.Matrix = a.matrix
	est.Matrix.WOVByVis = est.Stats.WOVOpenedByVis
	est.Matrix.WOVByLat = est.Stats.WOVOpenedByLat

	// The curve takes the observations unfitted; the restricted mean
	// below, or the caller's first read, fits it.
	km, err := a.obs.DeferredKaplanMeier()
	if err != nil {
		return Estimate{}, fmt.Errorf("sim: fitting survival curve: %w", err)
	}
	est.Survival = km

	if a.weighted {
		// Biased run: Horvitz–Thompson estimates under the true
		// measure. Survival above stays the raw Kaplan–Meier fit over
		// the biased-measure trials — a diagnostic of what the sampler
		// saw, not a corrected curve.
		est.Bias = opt.Bias
		est.EffectiveSamples = a.wLoss.EffectiveN()
		iv, err := a.wLoss.CI(opt.Level)
		if err != nil {
			return Estimate{}, fmt.Errorf("sim: weighted loss probability interval: %w", err)
		}
		est.LossProb = iv
		if cv, err := a.wLoss.ControlVariateCI(opt.Level); err == nil {
			est.LossProbCV = cv
		}
		// Weighted restricted mean H − Σ_lost w·(H − T)/n: the
		// importance-sampled counterpart of the Kaplan–Meier restricted
		// mean under fixed-horizon censoring, with the weighted loss
		// times' spread (ESS-adjusted t-interval) as a rough interval.
		rm := opt.Horizon
		if lostW := a.wTimes.SumWeights(); lostW > 0 {
			rm = opt.Horizon - lostW*(opt.Horizon-a.wTimes.Mean())/float64(a.trials)
		}
		if iv, err := a.wTimes.MeanCI(opt.Level); err == nil {
			half := iv.HalfWidth()
			est.MTTDL = stats.Interval{Point: rm, Lo: rm - half, Hi: rm + half, Level: opt.Level}
		} else {
			est.MTTDL = stats.Interval{Point: rm, Lo: rm, Hi: rm, Level: opt.Level}
		}
		return est, nil
	}

	switch {
	case est.Censored == 0:
		iv, err := a.lossTimes.MeanCI(opt.Level)
		if err != nil {
			return Estimate{}, fmt.Errorf("sim: MTTDL interval: %w", err)
		}
		est.MTTDL = iv
	case a.lossTimes.N() >= 2:
		// Censored run: report the restricted mean (a defensible lower
		// bound) with the uncensored subset's spread as a rough
		// interval.
		rm := km.RestrictedMean(opt.Horizon)
		iv, err := a.lossTimes.MeanCI(opt.Level)
		if err != nil {
			return Estimate{}, fmt.Errorf("sim: MTTDL interval: %w", err)
		}
		half := iv.HalfWidth()
		est.MTTDL = stats.Interval{Point: rm, Lo: rm - half, Hi: rm + half, Level: opt.Level}
	default:
		// (Almost) nothing was lost before the horizon: the restricted
		// mean is essentially the horizon and carries no spread.
		rm := km.RestrictedMean(opt.Horizon)
		est.MTTDL = stats.Interval{Point: rm, Lo: rm, Hi: rm, Level: opt.Level}
	}

	if opt.Horizon > 0 {
		iv, err := a.lossProb.CI(opt.Level)
		if err != nil {
			return Estimate{}, fmt.Errorf("sim: loss probability interval: %w", err)
		}
		est.LossProb = iv
	}
	return est, nil
}

// snapshot renders the reduction as a Progress frame. The MTTDL interval
// is the provisional Student-t interval over observed loss times (the
// final censored-run estimate substitutes the restricted mean as its
// point); LossProb is meaningful only when the run is horizon-censored.
func (a *accumulator) snapshot(opt Options, batches, budget int) Progress {
	p := Progress{
		Trials:         a.trials,
		Batches:        batches,
		Losses:         a.obs.EventsN(),
		Censored:       a.censored,
		RelWidth:       a.stopWidth(opt),
		TargetRelWidth: opt.TargetRelWidth,
		Budget:         budget,
	}
	if a.lossTimes.N() >= 2 {
		if iv, err := a.lossTimes.MeanCI(opt.Level); err == nil {
			p.MTTDL = iv
		}
	}
	if a.weighted {
		p.EffectiveSamples = a.wLoss.EffectiveN()
		if a.wLoss.N() > 0 {
			if iv, err := a.wLoss.CI(opt.Level); err == nil {
				p.LossProb = iv
			}
		}
		return p
	}
	if opt.Horizon > 0 && a.lossProb.N() > 0 {
		if iv, err := a.lossProb.CI(opt.Level); err == nil {
			p.LossProb = iv
		}
	}
	return p
}
