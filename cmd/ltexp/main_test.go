package main

import (
	"bytes"
	"context"
	"os"
	"testing"

	"repro/internal/experiments"
)

// EXPERIMENTS.md is the `ltexp -quick` output at seed 1, committed so a
// change to any experiment's numbers or wording shows in review. The
// output reads the same at any GOMAXPROCS.
func TestExperimentsFileIsQuickSeed1(t *testing.T) {
	var got bytes.Buffer
	for _, e := range experiments.All() {
		if err := runOne(context.Background(), &got, e, experiments.RunConfig{Seed: 1, Quick: true}); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
	}
	want, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("EXPERIMENTS.md line %d differs from `ltexp -quick -seed 1`:\n got: %s\nwant: %s\n(regenerate with `go run ./cmd/ltexp -quick -seed 1 > EXPERIMENTS.md` if the change is intended)", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("EXPERIMENTS.md has %d lines, `ltexp -quick -seed 1` prints %d", len(wl), len(gl))
}
