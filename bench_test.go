// Benchmarks regenerating every figure and numeric analysis of the paper
// (one benchmark per registered experiment), plus micro-benchmarks of
// the core primitives. Run:
//
//	go test -bench=. -benchmem
//
// The experiment benches run in Quick mode (reduced Monte Carlo budgets),
// the mode EXPERIMENTS.md records at seed 1; cmd/ltexp without -quick
// produces the full-budget numbers.
package repro_test

import (
	"context"
	"io"
	"testing"

	"repro"
)

// benchExperiment runs one registered experiment per iteration and
// renders its artifacts to io.Discard, so the measured cost covers the
// full regeneration path.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := repro.ExperimentByID(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := e.Run(context.Background(), repro.ExperimentConfig{Seed: uint64(i) + 1, Quick: true})
		if err != nil {
			b.Fatal(err)
		}
		for _, t := range res.Tables {
			if err := t.Render(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
		for _, p := range res.Plots {
			if err := p.Render(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// Figure 1: fault lifecycle timeline.
func BenchmarkFig1FaultTimeline(b *testing.B) { benchExperiment(b, "F1") }

// Figure 2 / eqs 3-6: double-fault combination matrix.
func BenchmarkFig2DoubleFaultMatrix(b *testing.B) { benchExperiment(b, "F2") }

// §5.4 worked example 1: no scrubbing, MTTDL 32.0 years.
func BenchmarkE1NoScrub(b *testing.B) { benchExperiment(b, "E1") }

// §5.4 worked example 2: scrubbing 3x/year, MTTDL 6128.7 years.
func BenchmarkE2Scrubbed(b *testing.B) { benchExperiment(b, "E2") }

// §5.4 worked example 3: alpha = 0.1, MTTDL 612.9 years.
func BenchmarkE3Correlated(b *testing.B) { benchExperiment(b, "E3") }

// §5.4 worked example 4: negligent latent handling, MTTDL 159.8 years.
func BenchmarkE4Negligent(b *testing.B) { benchExperiment(b, "E4") }

// §5.4: alpha bounds, five orders of magnitude.
func BenchmarkE5AlphaBounds(b *testing.B) { benchExperiment(b, "E5") }

// §5.5 / eq 12: replication x correlation sweep.
func BenchmarkE6ReplicationSweep(b *testing.B) { benchExperiment(b, "E6") }

// §6.1: consumer vs enterprise drive economics.
func BenchmarkE7DriveEconomics(b *testing.B) { benchExperiment(b, "E7") }

// §6.2: audit frequency sweep and disk-vs-tape comparison.
func BenchmarkE8AuditStrategies(b *testing.B) { benchExperiment(b, "E8") }

// §5.3 / eq 8: Monte Carlo validation grid.
func BenchmarkE9ModelValidation(b *testing.B) { benchExperiment(b, "E9") }

// §6.6: audit wear optimum and buggy repair.
func BenchmarkE10Tradeoffs(b *testing.B) { benchExperiment(b, "E10") }

// §5.5 / §6.5: replication without independence.
func BenchmarkE11Independence(b *testing.B) { benchExperiment(b, "E11") }

// §6 / §4.1: format migration cycling.
func BenchmarkE12FormatMigration(b *testing.B) { benchExperiment(b, "E12") }

// §7: erasure coding vs replication at equal overhead.
func BenchmarkE13ErasureVsReplication(b *testing.B) { benchExperiment(b, "E13") }

// §6.5: hardware-batch aging vs rolling procurement.
func BenchmarkE14BatchAging(b *testing.B) { benchExperiment(b, "E14") }

// §6.1–§6.2: heterogeneous fleets — mixed consumer+enterprise replicas
// and a disk+tape tiered archive, through the per-replica spec path.
func BenchmarkE15MixedFleet(b *testing.B) { benchExperiment(b, "E15") }

// BenchmarkEstimateHeterogeneous measures a parallel estimation of a
// three-tier fleet (consumer disk + enterprise disk + tape) built from
// named storage specs — the per-replica spec path's unit of work.
func BenchmarkEstimateHeterogeneous(b *testing.B) {
	consumer := scaledDiskStorageSpec(repro.Barracuda200())
	enterprise := scaledDiskStorageSpec(repro.Cheetah146())
	tape := repro.OfflineStorageSpec(repro.TapeShelf(200, 80, 24, 0.001, 0.001, 15),
		3*consumer.VisibleMean, 3*consumer.LatentMean, 8760.0/2000)
	tape.RepairHours = 2.4
	cfg, err := repro.FleetConfig(consumer, enterprise, tape)
	if err != nil {
		b.Fatal(err)
	}
	r, err := repro.NewRunner(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := r.Estimate(repro.SimOptions{Trials: 200, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Micro-benchmarks of the core primitives ----

// BenchmarkModelMTTDL measures one closed-form evaluation (clamped eq 7).
func BenchmarkModelMTTDL(b *testing.B) {
	p := repro.PaperCorrelated()
	b.ReportAllocs()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = p.MTTDL()
	}
	_ = sink
}

// BenchmarkModelSensitivities measures the §6 strategy ranking.
func BenchmarkModelSensitivities(b *testing.B) {
	p := repro.PaperCorrelated()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if s := p.Sensitivities(2); len(s) == 0 {
			b.Fatal("no sensitivities")
		}
	}
}

// BenchmarkSimTrialScrubbedMirror measures one run-to-loss trial of the
// paper's scrubbed mirror (the E2 workload unit).
func BenchmarkSimTrialScrubbedMirror(b *testing.B) {
	cfg, err := repro.PaperSimConfig(3, 1)
	if err != nil {
		b.Fatal(err)
	}
	r, err := repro.NewRunner(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := r.RunTrial(1, uint64(i), 0)
		if !res.Lost {
			b.Fatal("run-to-loss trial did not lose")
		}
	}
}

// BenchmarkSimTrialHorizon measures one 50-year censored trial, the unit
// of loss-probability estimation.
func BenchmarkSimTrialHorizon(b *testing.B) {
	cfg, err := repro.PaperSimConfig(3, 0.1)
	if err != nil {
		b.Fatal(err)
	}
	r, err := repro.NewRunner(cfg)
	if err != nil {
		b.Fatal(err)
	}
	horizon := repro.YearsToHours(50)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.RunTrial(1, uint64(i), horizon)
	}
}

// BenchmarkEstimateParallel measures a full parallel estimation of the
// fast mirror used throughout the test suite.
func BenchmarkEstimateParallel(b *testing.B) {
	rep, err := repro.AutomatedRepair(10, 10, 0)
	if err != nil {
		b.Fatal(err)
	}
	cfg := repro.SimConfig{
		Replicas:    2,
		VisibleMean: 1000,
		LatentMean:  2000,
		Scrub:       repro.NoScrub(),
		Repair:      rep,
		Correlation: repro.IndependentReplicas(),
	}
	r, err := repro.NewRunner(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := r.Estimate(repro.SimOptions{Trials: 200, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
