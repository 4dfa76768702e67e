package experiments

import (
	"context"
	"fmt"
	"math"

	"repro/internal/model"
	"repro/internal/report"
	"repro/internal/scenario"
)

func init() {
	register(Experiment{
		ID:     "E6",
		Title:  "Replication vs correlation: eq 12 sweep and Monte Carlo shape check",
		Source: "§5.5, eq 12",
		Run:    runE6,
	})
}

// runE6 reproduces §5.5: replication pays off geometrically, and
// correlation (α ≪ 1) takes the payoff back geometrically. The analytic
// sweep uses the paper's eq 12 directly; the Monte Carlo side replays a
// scaled-down physical system to confirm the *shape* (slopes in log
// space), since eq 12's absolute values rest on the overlapping-window
// and single-candidate approximations the paper itself flags.
func runE6(ctx context.Context, cfg RunConfig) (*Result, error) {
	res := &Result{ID: "E6", Title: "Replication × correlation sweep (eq 12)"}
	p := model.PaperNoScrub() // eq 12 uses MV/MRV only

	alphas := []float64{1, 0.1, 0.01, 0.001}
	maxR := 6
	tbl := report.NewTable("eq 12 MTTDL in years, paper parameters (MV=1.4e6 h, MRV=20 min)",
		"replicas", "alpha=1", "alpha=0.1", "alpha=0.01", "alpha=0.001")
	var plot report.LinePlot
	plot.Title = "eq 12: MTTDL vs replicas (log y)"
	plot.XLabel = "replicas"
	plot.YLabel = "MTTDL years"
	plot.LogY = true
	for _, a := range alphas {
		q := p.WithAlpha(a)
		var xs, ys []float64
		for r := 1; r <= maxR; r++ {
			xs = append(xs, float64(r))
			ys = append(ys, model.Years(q.ReplicatedMTTDL(r)))
		}
		plot.MustAdd(report.Series{Name: fmt.Sprintf("alpha=%g", a), X: xs, Y: ys})
	}
	for r := 1; r <= maxR; r++ {
		row := make([]any, 0, 1+len(alphas))
		row = append(row, r)
		for _, a := range alphas {
			row = append(row, model.Years(p.WithAlpha(a).ReplicatedMTTDL(r)))
		}
		tbl.MustAddRow(row...)
	}
	res.Tables = append(res.Tables, tbl)
	res.Plots = append(res.Plots, &plot)

	// The paper's cancellation point: with α = MRV/MV the gain per
	// replica is exactly 1.
	cancel := p.MRV / p.MV
	res.addNote("per-replica MTTDL multiplier is α·MV/MRV; at α = MRV/MV = %.1e extra replicas buy nothing (eq 12)", cancel)

	// Monte Carlo shape check on a scaled system.
	mc, err := replicationShapeMC(ctx, cfg)
	if err != nil {
		return nil, err
	}
	res.Tables = append(res.Tables, mc.table)
	res.addNote("monte carlo side defined as scenario document \"E6-replication-x-correlation\" (replicas × alpha grid) and executed through scenario.Expand — the same expansion path behind `ltsim -scenario` and the daemon's scenario-driven /sweep")
	res.addNote("monte carlo log-slope per replica: alpha=1 %.2f decades, alpha=0.1 %.2f decades (eq 12 predicts %.2f and %.2f)",
		mc.slope1, mc.slope01, math.Log10(1*mcMV/mcMRV), math.Log10(0.1*mcMV/mcMRV))
	res.addNote("eq 12 sits ~r above the exact birth-death chain (model.TestEq12VsMarkovConventionFactor): the r first-fault initiators it ignores are exactly offset by parallel repair; the geometric shape is what the paper argues from")
	return res, nil
}

type replicationMC struct {
	table           *report.Table
	slope1, slope01 float64
}

// mcMV and mcMRV scale the shape-check system: the per-replica eq 12
// multiplier is α·mcMV/mcMRV = 20α, large enough to measure a geometric
// slope and small enough that r=4 trials stay affordable.
const (
	mcMV  = 200.0
	mcMRV = 10.0
)

// replicationShapeMC measures MTTDL vs replica count on a fast system
// for α ∈ {1, 0.1}. The sweep is a declarative scenario document — a
// replicas × alpha grid over the scaled mirror — expanded and executed
// through the same path as `ltsim -scenario` and the daemon's
// scenario-driven /sweep.
func replicationShapeMC(ctx context.Context, cfg RunConfig) (*replicationMC, error) {
	base := adaptiveBase(cfg.Seed, cfg.trials(800), 0.08)
	base.ScrubsPerYear = scrubs(0)
	base.VisibleMeanHours = mcMV
	base.LatentMeanHours = -1 // no latent channel
	base.RepairVisibleHours = mcMRV
	base.RepairLatentHours = mcMRV
	doc := scenario.Document{
		V:    scenario.Version,
		Name: "E6-replication-x-correlation",
		Base: base,
		Grid: []scenario.Axis{
			{Param: "replicas", Values: []float64{2, 3, 4}},
			{Param: "alpha", Values: []float64{1, 0.1}},
		},
	}
	_, ests, err := runScenario(ctx, doc)
	if err != nil {
		return nil, err
	}

	tbl := report.NewTable("Monte Carlo MTTDL (hours), scaled mirror MV=200, MRV=10",
		"replicas", "alpha=1", "alpha=0.1", "eq 12 alpha=1", "eq 12 alpha=0.1")
	p := model.Params{MV: mcMV, ML: math.Inf(1), MRV: mcMRV, MRL: mcMRV, MDL: 0, Alpha: 1}

	var logs1, logs01 []float64
	// Grid order: replicas slowest, alpha fastest — pairs per r.
	for i, r := range []int{2, 3, 4} {
		est1 := ests[2*i].MTTDL.Point
		est01 := ests[2*i+1].MTTDL.Point
		tbl.MustAddRow(r, est1, est01,
			p.WithAlpha(1).ReplicatedMTTDL(r),
			p.WithAlpha(0.1).ReplicatedMTTDL(r))
		logs1 = append(logs1, math.Log10(est1))
		logs01 = append(logs01, math.Log10(est01))
	}
	return &replicationMC{
		table:   tbl,
		slope1:  (logs1[len(logs1)-1] - logs1[0]) / float64(len(logs1)-1),
		slope01: (logs01[len(logs01)-1] - logs01[0]) / float64(len(logs01)-1),
	}, nil
}
