package experiments

import (
	"context"

	"repro/internal/model"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/sim"
)

func init() {
	register(Experiment{
		ID:     "E10",
		Title:  "Strategy side effects: audit wear optimum and buggy automated repair",
		Source: "§6.6",
		Run:    runE10,
	})
}

// runE10 quantifies §6.6's two cautions. First, auditing touches media,
// and touching media causes faults, so MTTDL versus audit frequency has
// an interior optimum instead of "more is better". Second, automated
// repair is software; if each repair can silently plant a latent fault,
// visible faults convert into latent ones, and only auditing wins the
// resulting race.
func runE10(ctx context.Context, cfg RunConfig) (*Result, error) {
	res := &Result{ID: "E10", Title: "Audit wear and buggy repair (§6.6)"}

	// Part 1: audit-frequency sweep with per-pass wear. Scaled system
	// (ML=2000 h) keeps the eager audit path affordable.
	sweep := report.NewTable("Audit frequency vs MTTDL with per-pass wear (1% latent + 0.2% visible; ML=2000 h)",
		"audit interval (h)", "MTTDL clean (h)", "MTTDL with wear (h)", "wear penalty")
	var xs, clean, worn []float64
	for _, interval := range []float64{1000, 500, 200, 100, 50, 20} {
		c := adaptiveBase(cfg.Seed, cfg.trials(500), 0.08)
		c.VisibleMeanHours, c.LatentMeanHours, c.ScrubsPerYear = 20000, 2000, every(interval)
		c.RepairVisibleHours, c.RepairLatentHours = 2, 2
		cleanEst, err := estimateMTTDL(ctx, c, nil)
		if err != nil {
			return nil, err
		}
		// Wear plants mostly silent corruption, but a fraction of
		// passes destroys the replica outright (handling, head wear) —
		// the §6.2/§6.6 channel that makes hyperactive auditing lose.
		c.AuditWearProb = 0.01
		wornEst, err := estimateMTTDL(ctx, c, func(b *sim.Config) { b.AuditVisibleFaultProb = 0.002 })
		if err != nil {
			return nil, err
		}
		sweep.MustAddRow(interval, cleanEst, wornEst, wornEst/cleanEst)
		xs = append(xs, interval)
		clean = append(clean, cleanEst)
		worn = append(worn, wornEst)
	}
	res.Tables = append(res.Tables, sweep)
	var plot report.LinePlot
	plot.Title = "MTTDL vs audit interval, with and without audit wear (log-log)"
	plot.XLabel = "audit interval hours"
	plot.YLabel = "MTTDL hours"
	plot.LogX, plot.LogY = true, true
	plot.MustAdd(report.Series{Name: "clean audits", X: xs, Y: clean})
	plot.MustAdd(report.Series{Name: "1% wear per pass", X: xs, Y: worn})
	res.Plots = append(res.Plots, &plot)

	// Locate the optimum under wear.
	bestIdx := 0
	for i, v := range worn {
		if v > worn[bestIdx] {
			bestIdx = i
		}
	}
	res.addNote("clean audits: monotone improvement with frequency; with wear the optimum sits at interval ~%.0f h — §6.6's balance point", xs[bestIdx])

	// Part 2: buggy automated repair, with and without auditing. The
	// sweep is a declarative scenario document — a bug-probability ×
	// audit-schedule grid — expanded and executed through the same path
	// as `ltsim -scenario` and the daemon's scenario-driven /sweep.
	bugTbl := report.NewTable("Buggy repair: probability each repair plants a latent fault (MV=2000 h, no latent channel otherwise)",
		"bug probability", "MTTDL no scrub (h)", "MTTDL scrubbed every 200 h (h)")
	bugBase := adaptiveBase(cfg.Seed, cfg.trials(600), 0.08)
	bugBase.Replicas = 2
	bugBase.VisibleMeanHours = 2000
	bugBase.LatentMeanHours = 1e12 // bug-planted faults are the only latent source
	bugBase.RepairVisibleHours = 10
	bugBase.RepairLatentHours = 10
	bugProbs := []float64{0, 0.01, 0.1, 0.5}
	bugDoc := scenario.Document{
		V:    scenario.Version,
		Name: "E10-buggy-repair",
		Base: bugBase,
		Grid: []scenario.Axis{
			{Param: "repair_bug_prob", Values: bugProbs},
			{Param: "scrubs_per_year", Values: []float64{0, 8760.0 / 200}},
		},
	}
	_, bugEsts, err := runScenario(ctx, bugDoc)
	if err != nil {
		return nil, err
	}
	// Grid order: bug probability slowest, audit schedule fastest.
	for i, bug := range bugProbs {
		bugTbl.MustAddRow(bug, bugEsts[2*i].MTTDL.Point, bugEsts[2*i+1].MTTDL.Point)
	}
	res.Tables = append(res.Tables, bugTbl)
	res.addNote("without auditing, a 10%% repair bug rate collapses MTTDL toward the single-copy value — 'even visible faults can now turn into latent ones' (§6.6); auditing recovers most of the loss")
	res.addNote("sweep defined as scenario document \"E10-buggy-repair\" (repair_bug_prob × scrubs_per_year grid) executed through scenario.Expand — the same expansion path behind `ltsim -scenario` and the daemon's scenario-driven /sweep")

	// Part 3 (ablation): synchronized vs staggered audit schedules.
	stagTbl, err := staggeredAblation(ctx, cfg)
	if err != nil {
		return nil, err
	}
	res.Tables = append(res.Tables, stagTbl)
	res.addNote("staggering halves the worst-case joint exposure of the pair but leaves mean MTTDL within noise — detection lag, not phase, is what matters (§6.2)")
	return res, nil
}

// staggeredAblation compares synchronized periodic audits against
// schedules offset by half an interval per replica.
func staggeredAblation(ctx context.Context, cfg RunConfig) (*report.Table, error) {
	const interval = 400.0
	sync := adaptiveBase(cfg.Seed, cfg.trials(800), 0.08)
	sync.VisibleMeanHours, sync.LatentMeanHours, sync.ScrubsPerYear = 1e12, 2000, every(interval)
	sync.RepairVisibleHours, sync.RepairLatentHours = 2, 2
	stag := adaptiveBase(cfg.Seed, cfg.trials(800), 0.08)
	for _, offset := range []float64{0, interval / 2} {
		stag.Fleet = append(stag.Fleet, scenario.FleetEntry{
			VisibleMeanHours: 1e12, LatentMeanHours: 2000, RepairHours: 2,
			ScrubsPerYear: model.HoursPerYear / interval, ScrubOffsetHours: offset,
		})
	}
	tbl := report.NewTable("Synchronized vs staggered audit schedules (interval 400 h)",
		"schedule", "MTTDL (h)")
	a, err := estimateMTTDL(ctx, sync, nil)
	if err != nil {
		return nil, err
	}
	b, err := estimateMTTDL(ctx, stag, nil)
	if err != nil {
		return nil, err
	}
	tbl.MustAddRow("synchronized", a)
	tbl.MustAddRow("staggered half-interval", b)
	return tbl, nil
}
