// Package experiments regenerates every figure and numeric claim of the
// paper's analysis (§5.4–§6.6), one registered experiment per item. Each
// experiment produces text tables and ASCII plots plus commentary notes
// recording paper-vs-measured values; cmd/ltexp renders them and the root
// bench_test.go exposes each as a benchmark. All (or `ltexp -list`) is
// the experiment index, and EXPERIMENTS.md records the `ltexp -quick`
// output at seed 1.
//
// Every simulated cell is a wire request: a scenario.EstimateRequest,
// alone or as a point of a scenario document, whose sim.Config and
// sim.Options come only from EstimateRequest.Build, the path ltsimd and
// ltsim take. A cell that needs a field the wire cannot express calls
// Build and then sets that one field on the built config:
//
//   - E8 and E10 (audit wear) set AuditVisibleFaultProb, the chance an
//     audit pass destroys its replica outright;
//   - E11 sets Shocks, the common-cause shocks of a replica topology;
//   - E13 sets Repair to an exponential repair-time policy.
//
// No wire field was added for them: each serves one experiment, and a
// wire field costs canonical folding, a scenario axis and a CLI flag for
// every caller. Two runs stay direct: F1 traces single trials with
// sim.TraceTrial (its config still comes from Build), and E14 runs
// aging.SimulatePair, a two-drive batch-aging model outside the
// simulator.
package experiments

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/report"
)

// RunConfig scales an experiment run.
type RunConfig struct {
	// Seed fixes all Monte Carlo randomness.
	Seed uint64
	// Quick reduces Monte Carlo trial counts for smoke tests and
	// benchmarks; results stay directionally correct with wider error
	// bars.
	Quick bool
}

// trials picks a trial budget.
func (c RunConfig) trials(full int) int {
	if c.Quick {
		q := full / 10
		if q < 60 {
			q = 60
		}
		return q
	}
	return full
}

// Result is an experiment's rendered output.
type Result struct {
	// ID is the experiment identifier (F1, F2, E1..E12).
	ID string
	// Title describes what was reproduced.
	Title string
	// Tables holds the regenerated tables.
	Tables []*report.Table
	// Plots holds the regenerated figures.
	Plots []*report.LinePlot
	// Notes records paper-vs-measured commentary, one finding per line.
	Notes []string
}

// addNote appends a formatted note.
func (r *Result) addNote(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Experiment is one registered reproduction target.
type Experiment struct {
	// ID is the experiment's identifier (F1, F2, E1, E2, ...).
	ID string
	// Title summarizes the target.
	Title string
	// Source cites the paper section/figure.
	Source string
	// Run executes the experiment. Its simulated cells run under ctx, so
	// a cancelled ctx ends the run with ctx's error.
	Run func(context.Context, RunConfig) (*Result, error)
}

var registry []Experiment

// register adds an experiment at package init.
func register(e Experiment) {
	registry = append(registry, e)
}

// All returns the experiments in index order: F1, F2, then E1, E2, ...
func All() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	sort.SliceStable(out, func(i, j int) bool { return orderKey(out[i].ID) < orderKey(out[j].ID) })
	return out
}

// orderKey sorts F1, F2 first, then E1..E12 numerically.
func orderKey(id string) int {
	if len(id) < 2 {
		return 1 << 20
	}
	var n int
	if _, err := fmt.Sscanf(id[1:], "%d", &n); err != nil {
		return 1 << 20
	}
	if id[0] == 'F' {
		return n
	}
	return 100 + n
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
