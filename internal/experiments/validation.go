package experiments

import (
	"context"
	"math"

	"repro/internal/baseline"
	"repro/internal/report"
	"repro/internal/scenario"
)

func init() {
	register(Experiment{
		ID:     "E9",
		Title:  "Monte Carlo validation of the closed-form mirrored MTTDL (eq 8) across a parameter grid",
		Source: "§5.3, eq 8",
		Run:    runE9,
	})
}

// e9Case is one grid point: a physical configuration whose simulated
// MTTDL is compared against the paper's closed form (adjusted for the
// first-fault convention) and against the Patterson baseline.
type e9Case struct {
	label            string
	mv, ml, mrv, mrl float64
	scrubsPerYear    float64 // 0 = no scrubbing
	alpha            float64
	trials           int
}

// runE9 sweeps the model's operating regimes. The grid is a declarative
// scenario document — one zip block pairing every physical parameter
// per cell — expanded and executed through the same path as `ltsim
// -scenario` and the daemon's scenario-driven /sweep. In every cell the
// physical simulation should agree with eq 7/8 divided by the replica
// count (the paper counts first faults at rate 1/MV for the pair; the
// physical pair sees 2/MV), up to the small-window approximations.
func runE9(ctx context.Context, cfg RunConfig) (*Result, error) {
	res := &Result{ID: "E9", Title: "Model-vs-simulation validation grid (eq 8)"}
	grid := []e9Case{
		{"visible dominated", 1000, 1e8, 10, 10, 8760.0 / 100, 1, 2500},
		{"latent dominated, scrubbed", 1e7, 1000, 5, 5, 8760.0 / 100, 1, 2500},
		{"mixed rates", 2000, 1500, 20, 20, 8760.0 / 200, 1, 2500},
		{"correlated alpha=0.1", 1000, 1e8, 10, 10, 8760.0 / 100, 0.1, 2500},
		{"latent, slow audit", 1e7, 2000, 5, 5, 8760.0 / 1000, 1, 2000},
	}

	// Each zip axis carries one parameter column of the grid; the axes
	// advance together, one expanded point per validation cell.
	zip := []scenario.Axis{
		{Param: "visible_mean_hours"}, {Param: "latent_mean_hours"},
		{Param: "repair_visible_hours"}, {Param: "repair_latent_hours"},
		{Param: "scrubs_per_year"}, {Param: "alpha"},
		{Param: "trials"}, {Param: "max_trials"},
	}
	budgets := make([]int, len(grid))
	for i, g := range grid {
		run := adaptiveBase(cfg.Seed, cfg.trials(g.trials), 0.04)
		budgets[i] = run.MaxTrials
		for j, v := range []float64{ // one value per zip axis, same order
			g.mv, g.ml, g.mrv, g.mrl, g.scrubsPerYear, g.alpha,
			float64(run.Trials), float64(run.MaxTrials),
		} {
			zip[j].Values = append(zip[j].Values, v)
		}
	}
	doc := scenario.Document{
		V:    scenario.Version,
		Name: "E9-validation-grid",
		Base: scenario.EstimateRequest{Replicas: 2, Seed: &cfg.Seed, TargetRelWidth: 0.04},
		Zip:  zip,
	}

	points, ests, err := runScenario(ctx, doc)
	if err != nil {
		return nil, err
	}

	tbl := report.NewTable("Simulated vs closed-form MTTDL (hours); model = clamped eq 7 / 2; runs stop at 4% CI half-width",
		"scenario", "trials", "sim MTTDL", "sim 95% CI half-width", "model/2", "sim ÷ (model/2)", "patterson/2")
	worst := 0.0
	saved := 0
	for i, g := range grid {
		c, _, err := points[i].Request.Build()
		if err != nil {
			return nil, err
		}
		est := ests[i]
		saved += budgets[i] - est.Trials
		adjusted := c.ModelParams().MTTDL() / 2
		ratio := est.MTTDL.Point / adjusted
		patterson := baseline.PattersonRAID{
			DiskMTTF: g.mv, DiskMTTR: g.mrv, TotalDisks: 2, GroupSize: 2,
		}.MTTDL()
		tbl.MustAddRow(g.label, est.Trials, est.MTTDL.Point, est.MTTDL.HalfWidth(), adjusted, ratio, patterson)
		if d := math.Abs(ratio - 1); d > worst {
			worst = d
		}
	}
	res.Tables = append(res.Tables, tbl)
	res.addNote("worst sim/model deviation %.0f%% — within the model's small-window approximations (window dwell time and exponential saturation are the residuals)", worst*100)
	res.addNote("precision-targeted runs (4%% relative CI half-width) spent %d fewer trials than the fixed grid budget", saved)
	res.addNote("grid defined as scenario document \"E9-validation-grid\": eight zip axes advancing together, one point per cell, expanded by scenario.Expand — the same path behind `ltsim -scenario` and the daemon's scenario-driven /sweep")
	res.addNote("the Patterson baseline matches only the visible-dominated row; everywhere else it overstates MTTDL because it prices neither latent faults nor correlation (§4, §5)")
	return res, nil
}
