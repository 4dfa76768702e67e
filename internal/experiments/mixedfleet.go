package experiments

import (
	"context"
	"math"

	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/storage"
)

func init() {
	register(Experiment{
		ID:     "E15",
		Title:  "Heterogeneous fleets: mixed consumer+enterprise replicas and a disk+tape tiered archive",
		Source: "§6.1–§6.2",
		Run:    runE15,
	})
}

// fleetScale compresses the drives' ~10⁶-hour fault scales into a
// Monte-Carlo-affordable regime: all means divide by this factor, which
// preserves every ratio the §6.1 comparison turns on (MTTF gap, latent
// factor, scrub-to-repair ratios) while letting run-to-loss trials
// finish in milliseconds.
const fleetScale = 300

// scaledDiskSpec is storage.DiskSpec with the time axis divided by
// fleetScale and an audit period of 200 scaled hours.
func scaledDiskSpec(d storage.DriveSpec) storage.Spec {
	s := storage.DiskSpec(d, 0)
	s.VisibleMean /= fleetScale
	s.LatentMean /= fleetScale
	s.ScrubsPerYear = 8760.0 / 200 // every 200 scaled hours
	if s.RepairHours < 2 {
		s.RepairHours = 2 // floor: dispatch + copy never beats 2 scaled hours
	}
	return s
}

// fleetRequest describes a fleet of storage specs as a request, one
// custom entry per spec, under the harness's 8% stopping rule.
func fleetRequest(cfg RunConfig, specs []storage.Spec) scenario.EstimateRequest {
	req := adaptiveBase(cfg.Seed, cfg.trials(800), 0.08)
	for _, s := range specs {
		req.Fleet = append(req.Fleet, scenario.FleetEntryFromSpec(s))
	}
	return req
}

// runE15 exercises the per-replica spec machinery end-to-end: §6.1's
// consumer-vs-enterprise argument replayed as three-replica fleets
// (pure and mixed), and §6.2's online/offline argument as a disk+tape
// tiered archive. The analytic model cannot express either mix — its
// parameters are fleet-wide scalars — so this is pure simulator
// territory, and the experiment that justifies sim.Config.Specs.
func runE15(ctx context.Context, cfg RunConfig) (*Result, error) {
	res := &Result{ID: "E15", Title: "Heterogeneous replica fleets (§6.1–§6.2)"}

	consumer := scaledDiskSpec(storage.Barracuda200())
	enterprise := scaledDiskSpec(storage.Cheetah146())

	// Part 1: pure vs mixed consumer/enterprise three-replica fleets.
	// Hardware $ prices a 1 TB archive from the §6.1 per-GB quotes.
	const archiveGB = 1000
	fleets := []struct {
		label string
		specs []storage.Spec
	}{
		{"3x consumer", []storage.Spec{consumer, consumer, consumer}},
		{"2 consumer + 1 enterprise", []storage.Spec{consumer, consumer, enterprise}},
		{"1 consumer + 2 enterprise", []storage.Spec{consumer, enterprise, enterprise}},
		{"3x enterprise", []storage.Spec{enterprise, enterprise, enterprise}},
	}
	prices := map[string]float64{
		consumer.Label:   storage.Barracuda200().PricePerGB * archiveGB,
		enterprise.Label: storage.Cheetah146().PricePerGB * archiveGB,
	}
	mixTbl := report.NewTable("Mixed consumer/enterprise fleets (r=3, scaled time; 1 TB archive hardware $)",
		"fleet", "MTTDL (scaled h)", "hardware $", "$ per MTTDL-hour")
	var mttdls []float64
	for _, f := range fleets {
		mttdl, err := estimateMTTDL(ctx, fleetRequest(cfg, f.specs), nil)
		if err != nil {
			return nil, err
		}
		var cost float64
		for _, s := range f.specs {
			cost += prices[s.Label]
		}
		mixTbl.MustAddRow(f.label, mttdl, cost, cost/mttdl)
		mttdls = append(mttdls, mttdl)
	}
	res.Tables = append(res.Tables, mixTbl)
	res.addNote("MTTDL rises monotonically with enterprise share (%.3g → %.3g scaled h) while hardware cost rises %.1fx — each enterprise substitution buys less reliability per dollar, §6.1's conclusion extended to mixed fleets",
		mttdls[0], mttdls[len(mttdls)-1], storage.PriceRatio(storage.Barracuda200(), storage.Cheetah146()))
	if upgrade, premium := mttdls[1]/mttdls[0], (prices[consumer.Label]*2+prices[enterprise.Label])/(prices[consumer.Label]*3); !math.IsNaN(upgrade) {
		res.addNote("swapping one consumer replica for enterprise multiplies MTTDL by %.2f at %.1fx the hardware cost", upgrade, premium)
	}

	// Part 2: disk+tape tiered archive. The tape replica is offline:
	// audited rarely (retrieval + mounting is expensive), repaired
	// slowly (handling), but on a medium whose fault clock is slower
	// and independent of the disk fleet's.
	tape := storage.OfflineSpec(
		storage.TapeShelf(200, 80, 24, 0.001, 0.001, 15),
		3*consumer.VisibleMean, // shelved media dodge the in-service wear channels
		3*consumer.LatentMean,
		8760.0/2000, // audited every 2000 scaled hours: ten times rarer than disk
	)
	tape.RepairHours = 24 / 10.0 // retrieve+rewrite, scaled like the disk floor

	tiers := []struct {
		label string
		specs []storage.Spec
	}{
		{"2x disk (mirror)", []storage.Spec{consumer, consumer}},
		{"2x disk + 1 tape", []storage.Spec{consumer, consumer, tape}},
		{"3x disk", []storage.Spec{consumer, consumer, consumer}},
	}
	tierTbl := report.NewTable("Disk+tape tiered archive (scaled time; audit $ at §6.2 per-pass costs)",
		"tier", "MTTDL (scaled h)", "audit $/1000 scaled h")
	auditDollars := func(specs []storage.Spec) float64 {
		var perKh float64
		for _, s := range specs {
			passes := s.ScrubsPerYear / 8760 * 1000
			if s.Label == tape.Label {
				perKh += passes * 15 // §6.2 retrieval/mount/return per pass
			} else {
				perKh += passes * 0.05 // online scrub: power + wear
			}
		}
		return perKh
	}
	var tierMTTDL []float64
	for _, f := range tiers {
		mttdl, err := estimateMTTDL(ctx, fleetRequest(cfg, f.specs), nil)
		if err != nil {
			return nil, err
		}
		tierTbl.MustAddRow(f.label, mttdl, auditDollars(f.specs))
		tierMTTDL = append(tierMTTDL, mttdl)
	}
	res.Tables = append(res.Tables, tierTbl)
	res.addNote("adding a rarely-audited tape to a disk mirror multiplies MTTDL by %.1f vs a third disk's %.1fx: the tape's slower fault clock roughly offsets its ten-times-longer detection lag (§6.2), and its audit spend is two orders of magnitude lower per pass only because passes are rare",
		tierMTTDL[1]/tierMTTDL[0], tierMTTDL[2]/tierMTTDL[0])
	res.addNote("the analytic model has no vocabulary for either mix: its MV/ML/MDL are fleet-wide scalars, so heterogeneous fleets are simulator-only territory (sim.Config.Specs)")
	return res, nil
}
