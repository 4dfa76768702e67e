package experiments

import (
	"context"
	"fmt"

	"repro/internal/model"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// runScenario expands a declarative scenario document and estimates
// every point in expansion order under ctx — the same schema and
// expansion path the ltsimd service (POST /sweep with a scenario) and
// `ltsim -scenario` execute, so an experiment's sweep is a document any
// frontend could replay, not a hand-rolled loop. Points and estimates
// are returned index-aligned.
func runScenario(ctx context.Context, doc scenario.Document) ([]scenario.Point, []sim.Estimate, error) {
	points, err := scenario.Expand(doc)
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: scenario %q: %w", doc.Name, err)
	}
	ests := make([]sim.Estimate, len(points))
	for i, pt := range points {
		_, est, _, err := pt.Execute(ctx)
		if err != nil {
			return nil, nil, fmt.Errorf("experiments: scenario %q point %d: %w", doc.Name, i, err)
		}
		ests[i] = est
	}
	return points, ests, nil
}

// estimate runs one cell under ctx: the request's Build, then patch,
// which sets the one field the wire cannot express (nil for a cell the
// request describes in full; see the package comment). The built config
// is returned for cells that also read it.
func estimate(ctx context.Context, req scenario.EstimateRequest, patch func(*sim.Config)) (sim.Config, sim.Estimate, error) {
	c, opt, err := req.Build()
	if err != nil {
		return sim.Config{}, sim.Estimate{}, err
	}
	if patch != nil {
		patch(&c)
	}
	runner, err := sim.NewRunner(c)
	if err != nil {
		return sim.Config{}, sim.Estimate{}, err
	}
	est, err := runner.EstimateStream(ctx, opt, nil)
	return c, est, err
}

// estimateMTTDL is estimate for cells that report only the MTTDL point.
func estimateMTTDL(ctx context.Context, req scenario.EstimateRequest, patch func(*sim.Config)) (float64, error) {
	_, est, err := estimate(ctx, req, patch)
	return est.MTTDL.Point, err
}

// adaptiveBase seeds a request with the harness's standard
// precision-targeted stopping rule: the run stops at the first batch
// boundary where the relevant interval's relative half-width reaches
// targetRel, bounded by budget (already scaled by RunConfig.trials, so
// sweeps are never slower than their fixed-budget ancestors) and
// floored at a tenth of it so an early boundary cannot stop on a fluke.
// Adaptive runs are deterministic in (seed, target, budget, batch
// size), so experiment output stays reproducible.
func adaptiveBase(seed uint64, budget int, targetRel float64) scenario.EstimateRequest {
	floor := budget / 10
	if floor < 60 {
		floor = 60
	}
	if floor > budget {
		floor = budget
	}
	return scenario.EstimateRequest{
		Seed:           &seed,
		Trials:         floor,
		MaxTrials:      budget,
		TargetRelWidth: targetRel,
	}
}

// scrubs is an audit frequency as the request's scrubs_per_year (0 =
// never audited).
func scrubs(perYear float64) *float64 { return &perYear }

// every is periodic audits every hours hours as scrubs_per_year. Build
// divides the year by it again, which gives back exactly hours for every
// interval used here.
func every(hours float64) *float64 { return scrubs(model.HoursPerYear / hours) }
