package experiments

import (
	"context"

	"repro/internal/aging"
	"repro/internal/model"
	"repro/internal/report"
)

func init() {
	register(Experiment{
		ID:     "E14",
		Title:  "Hardware-batch aging: same-batch mirrors vs rolling procurement under bathtub mortality",
		Source: "§6.5 (hardware diversity)",
		Run:    runE14,
	})
}

// runE14 quantifies §6.5's hardware-batch warning: drives from one batch
// sit at the same point of the bathtub curve, so under wear-out mortality
// their failures cluster and the mirror suffers correlated double faults
// that the memoryless model cannot express. Rolling procurement staggers
// the ages and dissolves the correlation. The Weibull shape sweeps from
// memoryless (k=1, batch age irrelevant) to sharply clustered mortality
// (k=8).
func runE14(ctx context.Context, cfg RunConfig) (*Result, error) {
	res := &Result{ID: "E14", Title: "Batch aging and rolling procurement (§6.5)"}
	const (
		meanLife = 5 * model.HoursPerYear // 5-year service life
		repairH  = 100.0                  // rebuild + replacement window
		horizon  = 6 * model.HoursPerYear // one procurement generation
	)
	trials := cfg.trials(20000)

	tbl := report.NewTable("P(double fault within 6 years) for a mirrored pair, by mortality shape",
		"weibull shape", "same batch", "staggered half-life", "batch penalty", "implied alpha")
	var xs, penalties []float64
	for _, shape := range []float64{1, 2, 4, 8} {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		same, err := aging.SimulatePair(aging.SameBatch(shape, meanLife, repairH, 0), trials, horizon, cfg.Seed+17)
		if err != nil {
			return nil, err
		}
		stag, err := aging.SimulatePair(aging.RollingProcurement(shape, meanLife, repairH, 0.5), trials, horizon, cfg.Seed+18)
		if err != nil {
			return nil, err
		}
		pSame := same.DoubleFaultProbability()
		pStag := stag.DoubleFaultProbability()
		penalty := pSame / pStag
		// Read the clustering back as the paper's alpha: the staggered
		// pair plays the role of the independent baseline.
		alphaImplied := pStag / pSame
		tbl.MustAddRow(shape, pSame, pStag, penalty, alphaImplied)
		xs = append(xs, shape)
		penalties = append(penalties, penalty)
	}
	res.Tables = append(res.Tables, tbl)

	var plot report.LinePlot
	plot.Title = "Same-batch double-fault penalty vs mortality shape"
	plot.XLabel = "weibull shape k"
	plot.YLabel = "penalty (x)"
	plot.MustAdd(report.Series{Name: "same-batch / staggered", X: xs, Y: penalties})
	res.Plots = append(res.Plots, &plot)

	res.addNote("k=1 (memoryless): batch age is irrelevant, penalty ~1 — the regime where the paper's exponential model lives")
	res.addNote("k>=4: same-batch mirrors cluster their wear-out failures; rolling procurement is the free independence lever of §6.5")
	res.addNote("the implied alpha column shows batch aging alone pushing correlation well below 1 without any shared component at all")
	return res, nil
}
