package experiments

import (
	"context"

	"repro/internal/model"
	"repro/internal/report"
)

func init() {
	register(Experiment{
		ID:     "E12",
		Title:  "Format obsolescence as a latent fault: migration cycling as low-frequency scrubbing",
		Source: "§6 (strategies list), §4.1",
		Run:    runE12,
	})
}

// runE12 runs the paper's §6 observation that format obsolescence is a
// latent fault at a slower timescale: "we can use a similar process of
// cycling through the data, albeit at a reduced frequency, to detect data
// in endangered formats and convert to new formats". A "replica" here is
// an independently-formatted rendition of the collection; the latent
// channel is a rendition's format becoming endangered, detection is the
// format-review cycle, and repair is migration to a current format.
func runE12(ctx context.Context, cfg RunConfig) (*Result, error) {
	res := &Result{ID: "E12", Title: "Format migration cycling (§6)"}

	// Timescales in years, converted to hours: format generations go
	// endangered on ~15-year scales (proprietary RAW formats, §3);
	// media faults continue underneath; migration of a rendition takes
	// a month of pipeline work once the need is noticed.
	const (
		formatEndangerMean = 15.0 * model.HoursPerYear
		mediaFaultMean     = 80.0 * model.HoursPerYear
		migrationHours     = 30 * 24.0
	)

	tbl := report.NewTable("Two independently-formatted renditions; format reviews every N years",
		"review cycle (years)", "effective MDL (years)", "MTTDL (years)", "P(collection uninterpretable in 100y)")
	var xs, ys []float64
	for _, cycleYears := range []float64{0, 20, 10, 5, 2} {
		c := adaptiveBase(cfg.Seed, cfg.trials(800), 0.08)
		c.VisibleMeanHours, c.LatentMeanHours = mediaFaultMean, formatEndangerMean
		c.ScrubsPerYear = scrubs(0)
		if cycleYears > 0 {
			c.ScrubsPerYear = every(cycleYears * model.HoursPerYear)
		}
		c.RepairVisibleHours, c.RepairLatentHours = 48, migrationHours
		built, est, err := estimate(ctx, c, nil)
		if err != nil {
			return nil, err
		}
		mttdl := est.MTTDL.Point
		mdlYears := model.Years(built.Scrub.MeanDetectionLag())
		loss := model.FaultProbability(model.YearsToHours(100), mttdl)
		tbl.MustAddRow(cycleYears, mdlYears, model.Years(mttdl), loss)
		if cycleYears > 0 {
			xs = append(xs, cycleYears)
			ys = append(ys, model.Years(mttdl))
		}
	}
	res.Tables = append(res.Tables, tbl)

	var plot report.LinePlot
	plot.Title = "Collection MTTDL vs format-review cycle (log y)"
	plot.XLabel = "review cycle years"
	plot.YLabel = "MTTDL years"
	plot.LogY = true
	plot.MustAdd(report.Series{Name: "two renditions", X: xs, Y: ys})
	res.Plots = append(res.Plots, &plot)

	res.addNote("with no review cycle, an endangered format sits latent until the other rendition also degrades — the Venera-photograph scenario in reverse (§2)")
	res.addNote("a 5-year review cycle behaves like scrubbing with MDL=2.5y: the same eq-10 mechanics at archival timescales")
	return res, nil
}
