// Command ltexp regenerates the paper's figures and numeric analyses:
// every experiment registered in internal/experiments (the index is
// `ltexp -list`), rendered as text tables, ASCII plots, and
// paper-vs-measured notes.
//
// Examples:
//
//	ltexp              # run everything at full Monte Carlo budgets
//	ltexp -id E2       # one experiment
//	ltexp -quick       # reduced budgets; at seed 1 this is EXPERIMENTS.md
//	ltexp -list        # show the experiment index
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/experiments"
)

func main() {
	var (
		id    = flag.String("id", "", "run a single experiment by ID (e.g. E2)")
		quick = flag.Bool("quick", false, "reduced Monte Carlo budgets")
		seed  = flag.Uint64("seed", 1, "random seed")
		list  = flag.Bool("list", false, "list experiments and exit")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-4s %-14s %s\n", e.ID, e.Source, e.Title)
		}
		return
	}

	todo := experiments.All()
	if *id != "" {
		e, ok := experiments.ByID(*id)
		if !ok {
			fmt.Fprintf(os.Stderr, "ltexp: unknown experiment %q (use -list)\n", *id)
			os.Exit(2)
		}
		todo = []experiments.Experiment{e}
	}

	cfg := experiments.RunConfig{Seed: *seed, Quick: *quick}
	failed := 0
	for _, e := range todo {
		if err := runOne(context.Background(), os.Stdout, e, cfg); err != nil {
			fmt.Fprintf(os.Stderr, "ltexp: %s: %v\n", e.ID, err)
			failed++
		}
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// runOne runs e under ctx and renders its banner, tables, plots and
// notes to w.
func runOne(ctx context.Context, w io.Writer, e experiments.Experiment, cfg experiments.RunConfig) error {
	fmt.Fprintf(w, "================================================================\n")
	fmt.Fprintf(w, "%s — %s (%s)\n", e.ID, e.Title, e.Source)
	fmt.Fprintf(w, "================================================================\n\n")
	res, err := e.Run(ctx, cfg)
	if err != nil {
		return err
	}
	for _, tbl := range res.Tables {
		if err := tbl.Render(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	for _, p := range res.Plots {
		if err := p.Render(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	for _, n := range res.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	_, err = fmt.Fprintln(w)
	return err
}
