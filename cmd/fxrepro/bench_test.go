package main

import (
	"bytes"
	"io"
	"os"
	"testing"

	"fxnet/internal/ethernet"
)

// BenchmarkPaperFigures renders the paper-scale runs fxrepro prints
// (seed 42) and fails on every claim the rendering states that does not
// hold, on a ~ or ✗ graded row without a reason and on a reason without
// one. It holds every faulted shared-segment trace to the exclusion
// oracle, and fails when the committed EXPERIMENTS.md is not the
// rendering. It is a benchmark so that `go test ./...` stays fast:
//
//	go test -run '^$' -bench PaperFigures -benchtime 1x ./cmd/fxrepro
func BenchmarkPaperFigures(b *testing.B) {
	var r runs
	for i := 0; i < b.N; i++ {
		var err error
		if r, _, err = collect(reproOptions{Seed: 42}, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()

	var doc bytes.Buffer
	cs, err := render(&doc, r)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range cs {
		if !c.holds {
			b.Errorf("✗ %s", c.text)
		}
	}
	// A ~ or ✗ row needs a reason, and a reason needs a ~ or ✗ row.
	missed := map[string]bool{}
	for _, g := range grades(r) {
		missed[g.key] = g.grade != "✓"
		if missed[g.key] != (reasons[g.key] != "") {
			b.Errorf("%s is graded %s; a ~ or ✗ row needs a reason in prose.go, a ✓ row none", g.key, g.grade)
		}
	}
	for key := range reasons {
		if _, ok := missed[key]; !ok {
			b.Errorf("%s has a reason but is no graded row", key)
		}
	}
	// Exclusion on every shared-segment trace, faulted runs included, at
	// its own bit rate.
	for label, jr := range r {
		if jr.Job.Stream || jr.Job.Config.Switched {
			continue
		}
		rate := jr.Job.Config.BitRate
		if rate == 0 {
			rate = ethernet.DefaultBitRate
		}
		if err := checkExclusion(jr.Result.Trace, rate); err != nil {
			b.Errorf("%s: %v", label, err)
		}
	}

	committed, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		b.Fatal(err)
	}
	if doc.String() != string(committed) {
		b.Errorf("EXPERIMENTS.md is not the rendering; regenerate it with go run ./cmd/fxrepro > EXPERIMENTS.md:\n%s",
			firstDiff(string(committed), doc.String()))
	}
}
