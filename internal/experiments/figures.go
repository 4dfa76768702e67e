package experiments

import (
	"context"
	"fmt"
	"math"

	"repro/internal/faults"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/sim"
)

func init() {
	register(Experiment{
		ID:     "F1",
		Title:  "Types of replica faults: visible vs latent lifecycle timeline",
		Source: "Figure 1",
		Run:    runF1,
	})
	register(Experiment{
		ID:     "F2",
		Title:  "Double-fault combinations: conditional second-fault probabilities, model vs Monte Carlo",
		Source: "Figure 2, eqs 3-6",
		Run:    runF2,
	})
}

// runF1 regenerates Figure 1 as a simulated trace: a visible fault whose
// recovery starts immediately, and a latent fault that sits undetected
// until an audit finds it.
func runF1(ctx context.Context, cfg RunConfig) (*Result, error) {
	// Fault scales chosen so a handful of both fault classes land within
	// the horizon; audits every 500 h make the detection lag visible.
	c, _, err := scenario.EstimateRequest{
		VisibleMeanHours: 4000, LatentMeanHours: 3000, ScrubsPerYear: every(500),
		RepairVisibleHours: 24, RepairLatentHours: 12,
	}.Build()
	if err != nil {
		return nil, err
	}
	// Trace trials until one exhibits both Figure-1 lifecycles (an
	// immediate visible repair and an audit-lagged latent detection),
	// aggregating lifecycle lags across every trial examined so the
	// measured numbers are not single-trace noise.
	var display *sim.Trace
	var visAgg, latAgg lagAccumulator
	for offset := uint64(1); offset <= 40; offset++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		tr, err := sim.TraceTrial(c, cfg.Seed+offset, 20000)
		if err != nil {
			return nil, err
		}
		vis, lat := lifecycleLags(tr)
		visAgg.add(vis)
		latAgg.add(lat)
		if display == nil && !math.IsNaN(vis) && !math.IsNaN(lat) {
			display = tr
		}
	}
	if display == nil {
		return nil, fmt.Errorf("experiments: no F1 trace exhibited both lifecycles in 40 trials")
	}
	tr := display
	res := &Result{ID: "F1", Title: "Fault lifecycle timeline (Figure 1)"}

	tbl := report.NewTable("Trace of one simulated mirror (times in hours; periodic audits every 500 h elided)",
		"time", "replica", "event", "fault class")
	const maxRows = 40
	rows := 0
	for _, e := range tr.Events {
		if e.Kind.String() == "audit" {
			continue // audits swamp the timeline; the detections show them
		}
		if rows >= maxRows {
			res.addNote("trace truncated to %d lifecycle events", maxRows)
			break
		}
		class := e.Fault.String()
		if e.Planted {
			class += " (induced)"
		}
		tbl.MustAddRow(e.Time, e.Replica, e.Kind.String(), class)
		rows++
	}
	res.Tables = append(res.Tables, tbl)

	// Figure 1's claim, measured: visible faults begin recovery
	// immediately; latent faults wait for detection first.
	res.addNote("mean occurrence-to-repair-start lag over %d lifecycles: visible %.1f h (immediate)", visAgg.n, visAgg.mean())
	res.addNote("mean occurrence-to-detection lag over %d lifecycles: latent %.1f h (audit interval 500 h => expected ~250 h)", latAgg.n, latAgg.mean())
	return res, nil
}

// lagAccumulator averages per-trace mean lags, skipping traces with none.
type lagAccumulator struct {
	sum float64
	n   int
}

func (a *lagAccumulator) add(v float64) {
	if math.IsNaN(v) {
		return
	}
	a.sum += v
	a.n++
}

func (a *lagAccumulator) mean() float64 {
	if a.n == 0 {
		return math.NaN()
	}
	return a.sum / float64(a.n)
}

// lifecycleLags extracts the mean fault-to-action lags per class from a
// trace.
func lifecycleLags(tr *sim.Trace) (visible, latent float64) {
	type open struct {
		at    float64
		class faults.Type
	}
	pending := map[int]open{}
	var visSum, latSum float64
	var visN, latN int
	for _, e := range tr.Events {
		switch e.Kind.String() {
		case "fault":
			if _, exists := pending[e.Replica]; !exists {
				pending[e.Replica] = open{at: e.Time, class: e.Fault}
			}
		case "repair-start":
			if o, exists := pending[e.Replica]; exists && o.class == faults.Visible {
				visSum += e.Time - o.at
				visN++
				delete(pending, e.Replica)
			}
		case "detected":
			if o, exists := pending[e.Replica]; exists && o.class == faults.Latent {
				latSum += e.Time - o.at
				latN++
				delete(pending, e.Replica)
			}
		case "repaired", "DATA LOSS":
			delete(pending, e.Replica)
		}
	}
	visible, latent = math.NaN(), math.NaN()
	if visN > 0 {
		visible = visSum / float64(visN)
	}
	if latN > 0 {
		latent = latSum / float64(latN)
	}
	return visible, latent
}

// runF2 regenerates Figure 2's 2x2 matrix quantitatively: the analytic
// conditional second-fault probabilities (eqs 3-6) against Monte Carlo
// conditional loss frequencies, on a configuration scaled so every cell
// is measurable.
func runF2(ctx context.Context, cfg RunConfig) (*Result, error) {
	// Scaled mirror: both channels active, windows short but non-trivial.
	c, est, err := estimate(ctx, scenario.EstimateRequest{
		VisibleMeanHours: 2000, LatentMeanHours: 1500, ScrubsPerYear: every(200),
		RepairVisibleHours: 20, RepairLatentHours: 20,
		Trials: cfg.trials(4000), Seed: &cfg.Seed,
	}, nil)
	if err != nil {
		return nil, err
	}
	p := c.ModelParams()
	probs := p.SecondFaultProbabilities()

	res := &Result{ID: "F2", Title: "Double-fault combination matrix (Figure 2)"}
	tbl := report.NewTable(
		fmt.Sprintf("Conditional probability that a window of vulnerability ends in loss (MV=%.3g, ML=%.3g, MRV=MRL=%.3g, MDL=%.3g)",
			p.MV, p.ML, p.MRV, p.MDL),
		"first fault", "second fault", "model (eqs 3-6)", "monte carlo", "mc/model")
	type cell struct {
		first, second faults.Type
		modelP        float64
	}
	cells := []cell{
		{faults.Visible, faults.Visible, probs.VAfterV},
		{faults.Visible, faults.Latent, probs.LAfterV},
		{faults.Latent, faults.Visible, probs.VAfterL},
		{faults.Latent, faults.Latent, probs.LAfterL},
	}
	for _, cl := range cells {
		mc := est.Matrix.ConditionalLossProb(cl.first, cl.second)
		ratio := mc / cl.modelP
		tbl.MustAddRow(cl.first.String(), cl.second.String(), cl.modelP, mc, ratio)
	}
	res.Tables = append(res.Tables, tbl)
	res.addNote("windows opened: %d by visible faults, %d by latent faults over %d trials",
		est.Matrix.WOVByVis, est.Matrix.WOVByLat, est.Trials)
	res.addNote("latent-first windows are ~%.0fx more dangerous than visible-first (detection lag %.3g h vs repair %.3g h) — the paper's core asymmetry",
		(probs.VAfterL+probs.LAfterL)/(probs.VAfterV+probs.LAfterV), p.MDL, p.MRV)
	return res, nil
}
