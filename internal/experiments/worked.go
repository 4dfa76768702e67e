package experiments

import (
	"context"
	"math"

	"repro/internal/model"
	"repro/internal/report"
	"repro/internal/scenario"
)

func init() {
	register(Experiment{
		ID:     "E1",
		Title:  "No-scrub mirrored Cheetahs: MTTDL 32.0 years, 79.0% loss in 50 years",
		Source: "§5.4",
		Run:    worked(scenarioE1()),
	})
	register(Experiment{
		ID:     "E2",
		Title:  "Scrubbing 3x/year: MTTDL 6128.7 years, 0.8% loss in 50 years",
		Source: "§5.4",
		Run:    worked(scenarioE2()),
	})
	register(Experiment{
		ID:     "E3",
		Title:  "Correlation α=0.1: MTTDL 612.9 years, 7.8% loss in 50 years",
		Source: "§5.4",
		Run:    worked(scenarioE3()),
	})
	register(Experiment{
		ID:     "E4",
		Title:  "Negligent latent handling: MTTDL 159.8 years, 26.8% loss in 50 years",
		Source: "§5.4, eq 11",
		Run:    worked(scenarioE4()),
	})
	register(Experiment{
		ID:     "E5",
		Title:  "Correlation factor bounds: 1 ≥ α ≥ 2e-6, five orders of magnitude",
		Source: "§5.4",
		Run:    runE5,
	})
}

// workedScenario binds one §5.4 worked example to its paper values and
// the paper's own evaluation procedure.
type workedScenario struct {
	id, title     string
	params        model.Params
	scrubsPerYear float64
	alpha         float64
	paperYears    float64
	paperLoss     float64
	// paperProcedure evaluates the closed form the paper used for this
	// scenario (clamped eq 7, eq 10, or eq 11).
	paperProcedure func(model.Params) float64
	procedureName  string
	// mcTrials is the full-mode Monte Carlo budget.
	mcTrials int
}

func scenarioE1() workedScenario {
	return workedScenario{
		id: "E1", title: "no scrubbing (MDL unbounded)",
		params: model.PaperNoScrub(), scrubsPerYear: 0, alpha: 1,
		paperYears: 32.0, paperLoss: 0.790,
		paperProcedure: model.Params.MTTDL, procedureName: "eq 7 with P(V2∨L2|L1)=1",
		mcTrials: 3000,
	}
}

func scenarioE2() workedScenario {
	return workedScenario{
		id: "E2", title: "scrub 3x/year (MDL = 1460 h)",
		params: model.PaperScrubbed(), scrubsPerYear: 3, alpha: 1,
		paperYears: 6128.7, paperLoss: 0.008,
		paperProcedure: model.Params.LatentDominatedMTTDL, procedureName: "eq 10",
		mcTrials: 800,
	}
}

func scenarioE3() workedScenario {
	return workedScenario{
		id: "E3", title: "scrub 3x/year, α = 0.1",
		params: model.PaperCorrelated(), scrubsPerYear: 3, alpha: model.PaperAlpha,
		paperYears: 612.9, paperLoss: 0.078,
		paperProcedure: model.Params.LatentDominatedMTTDL, procedureName: "eq 10",
		mcTrials: 1200,
	}
}

func scenarioE4() workedScenario {
	return workedScenario{
		id: "E4", title: "rare latent faults, never audited, α = 0.1",
		params: model.PaperNegligent(), scrubsPerYear: 0, alpha: model.PaperAlpha,
		paperYears: 159.8, paperLoss: 0.268,
		paperProcedure: model.Params.LongLatentWOVMTTDL, procedureName: "eq 11",
		mcTrials: 2500,
	}
}

// worked is the Run of one §5.4 worked example.
func worked(sc workedScenario) func(context.Context, RunConfig) (*Result, error) {
	return func(ctx context.Context, cfg RunConfig) (*Result, error) { return runWorkedScenario(ctx, cfg, sc) }
}

// runWorkedScenario reproduces one §5.4 example three ways: the paper's
// own closed form, the general clamped eq 7, and the event-driven Monte
// Carlo simulation.
func runWorkedScenario(ctx context.Context, cfg RunConfig, sc workedScenario) (*Result, error) {
	res := &Result{ID: sc.id, Title: "§5.4 worked example: " + sc.title}
	mission := model.YearsToHours(model.PaperMissionYears)

	paperEval := sc.paperProcedure(sc.params)
	full := sc.params.MTTDL()

	// Monte Carlo on the physical mirror: the paper's §5.4 system, with
	// the scenario's own ML (E4's is not the Schwarz ratio).
	_, est, err := estimate(ctx, scenario.EstimateRequest{
		LatentMeanHours: sc.params.ML, ScrubsPerYear: scrubs(sc.scrubsPerYear), Alpha: sc.alpha,
		Trials: cfg.trials(sc.mcTrials), Seed: &cfg.Seed,
	}, nil)
	if err != nil {
		return nil, err
	}

	tbl := report.NewTable("MTTDL and 50-year loss probability, paper vs reproduction",
		"quantity", "paper", "paper procedure ("+sc.procedureName+")", "full model (clamped eq 7)", "monte carlo")
	tbl.MustAddRow("MTTDL (years)",
		sc.paperYears,
		model.Years(paperEval),
		model.Years(full),
		model.Years(est.MTTDL.Point))
	tbl.MustAddRow("P(loss in 50y)",
		sc.paperLoss,
		model.FaultProbability(mission, paperEval),
		model.FaultProbability(mission, full),
		model.FaultProbability(mission, est.MTTDL.Point))
	res.Tables = append(res.Tables, tbl)

	ci := report.NewTable("Monte Carlo detail",
		"trials", "MTTDL 95% CI low (years)", "high (years)", "latent faults", "visible faults", "detections")
	ci.MustAddRow(est.Trials,
		model.Years(est.MTTDL.Lo), model.Years(est.MTTDL.Hi),
		est.Stats.LatentFaults, est.Stats.VisibleFaults, est.Stats.Detections)
	res.Tables = append(res.Tables, ci)

	procErr := math.Abs(model.Years(paperEval)-sc.paperYears) / sc.paperYears
	res.addNote("paper procedure reproduces the printed %.1f years within %.2f%%", sc.paperYears, procErr*100)
	// The closed forms count first faults at 1/MV for the pair where
	// the simulation's two replicas fault at 2/MV, which can only put
	// the simulation below the paper, by at most the replica count.
	simYears := model.Years(est.MTTDL.Point)
	if ratio := simYears / sc.paperYears; ratio >= 0.5 && ratio <= 1 {
		res.addNote("physical simulation MTTDL %.1f years vs paper %.1f (ratio %.2f) — within [0.5, 1], where the closed forms counting first faults at rate 1/MV for the pair instead of 2/MV can explain it (docs/MODEL.md §5)",
			simYears, sc.paperYears, ratio)
	} else {
		res.addNote("physical simulation MTTDL %.1f years vs paper %.1f (ratio %.2f) — outside [0.5, 1], so more than the closed forms' 1/MV-vs-2/MV convention can explain; not yet traced (ROADMAP.md, exact Markov reference; docs/MODEL.md §5)",
			simYears, sc.paperYears, ratio)
	}
	if sc.id == "E4" {
		res.addNote("eq 11 applies 1/α to an already-certain window probability; the clamped eq 7 is %.0fx less pessimistic (see model.TestEq11AlphaPessimism)",
			model.Years(full)/model.Years(paperEval))
	}
	return res, nil
}

// runE5 reproduces the §5.4 α-range argument: the reasoned lower bound
// α ≥ 10·MRV/MV and the resulting five-orders-of-magnitude span, swept
// through eq 10.
func runE5(context.Context, RunConfig) (*Result, error) {
	res := &Result{ID: "E5", Title: "Correlation factor α: bounds and MTTDL impact"}
	p := model.PaperScrubbed()
	bound := p.AlphaLowerBound()

	tbl := report.NewTable("MTTDL under eq 10 as α varies (scrubbed §5.4 scenario)",
		"alpha", "MTTDL (years)", "P(loss in 50y)")
	alphas := []float64{1, 0.1, 0.01, 1e-3, 1e-4, 1e-5, bound}
	var xs, ys []float64
	for _, a := range alphas {
		q := p.WithAlpha(a)
		mttdl := q.LatentDominatedMTTDL()
		tbl.MustAddRow(a, model.Years(mttdl), model.FaultProbability(model.YearsToHours(50), mttdl))
		xs = append(xs, a)
		ys = append(ys, model.Years(mttdl))
	}
	res.Tables = append(res.Tables, tbl)

	var plot report.LinePlot
	plot.Title = "MTTDL vs correlation factor (log-log)"
	plot.XLabel = "alpha"
	plot.YLabel = "MTTDL years"
	plot.LogX, plot.LogY = true, true
	plot.MustAdd(report.Series{Name: "eq 10", X: xs, Y: ys})
	res.Plots = append(res.Plots, &plot)

	res.addNote("α lower bound 10·MRV/MV = %.2e (paper: ~2e-6)", bound)
	res.addNote("range spans %.1f orders of magnitude (paper: at least 5)", -math.Log10(bound))
	res.addNote("correlation divides MTTDL linearly: every decade of α costs a decade of MTTDL (§5.4 third implication)")
	return res, nil
}
