package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

const manifestPath = "../BENCHMARK.json"

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifestLimits holds BENCHMARK.json to the driver's contract.
func TestManifestLimits(t *testing.T) {
	man, err := loadManifest(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(man.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(man.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(man.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if man.RunSeconds < 1 || man.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", man.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the grammar", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range man.Workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, d := range man.EndToEnd {
		name(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g, want (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = d.Unit == "s" && d.Better == "lower"
		}
	}
	if !setup {
		t.Error("no end-to-end setup_s in s, lower is better")
	}
	for _, d := range append(man.EndToEnd, man.PerLayer...) {
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q is outside the grammar", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
	}
	for _, d := range man.PerLayer {
		name(d.Name)
		if d.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", d.Name)
		}
	}
}

// TestSmoke runs both passes of every workload at smoke scale and
// requires each to emit exactly the declared metrics, every operation
// correct.
func TestSmoke(t *testing.T) {
	man, err := loadManifest(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range man.Workloads {
		for _, traced := range []bool{false, true} {
			line, err := runPass(man, options{
				workload: w.Name, seed: 42, seconds: 400 * time.Millisecond,
				traced: traced, scale: scaleSmoke,
			})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v, %d failed of %d", w.Name, traced, line.Correct, line.Failed, line.Attempted)
			}
			decls := man.EndToEnd
			if traced {
				decls = man.PerLayer
			}
			if len(line.Metrics) != len(decls) {
				t.Errorf("%s traced=%v: %d metrics emitted, %d declared", w.Name, traced, len(line.Metrics), len(decls))
			}
			var shares float64
			for _, d := range decls {
				m, ok := line.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s traced=%v: %s emitted as %+v, declared in %q", w.Name, traced, d.Name, m, d.Unit)
				}
				if !traced && !(m.Value > 0) {
					t.Errorf("%s: end-to-end %s = %v, must never be 0", w.Name, d.Name, m.Value)
				}
				if strings.HasSuffix(d.Name, ".cpu_share") {
					shares += m.Value
				}
			}
			// A smoke pass can be too short to draw a single profile
			// sample; when it draws any, the buckets must cover them all.
			if traced && shares != 0 && math.Abs(shares-1) > 0.01 {
				t.Errorf("%s: cpu shares sum to %v", w.Name, shares)
			}
		}
	}
	if left, _ := filepath.Glob(".bench_tmp*"); len(left) > 0 {
		t.Errorf("scratch left behind: %v", left)
	}
}

// TestQuartilesMatchPython pins the quantile rule to the values
// statistics.quantiles(xs, n=4) gives.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{2, 1}, [3]float64{0.75, 1.5, 2.25}},
	} {
		q1, med, q3 := quartiles(c.xs)
		if got := [3]float64{q1, med, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// TestCheckVerdicts feeds -check two synthetic result files.
func TestCheckVerdicts(t *testing.T) {
	man := &manifest{
		Workloads: []workloadDecl{{Name: "w"}},
		EndToEnd:  []metricDecl{{Name: "run_s", Unit: "s", Better: "lower", Bound: 0.10}},
	}
	write := func(name string, runS []float64, frames float64) string {
		var f resultFile
		for i, v := range runS {
			f.Runs = append(f.Runs,
				runRecord{Workload: "w", Seed: int64(i), resultLine: resultLine{Metrics: map[string]wireMetric{"run_s": {Value: v, Unit: "s"}}}},
				runRecord{Workload: "w", Seed: int64(i), Trace: 1, resultLine: resultLine{Metrics: map[string]wireMetric{"ethernet.frames": {Value: frames, Unit: "count"}}}},
			)
		}
		b, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00}
	slower := make([]float64, len(steady))
	noisy := make([]float64, len(steady))
	for i, v := range steady {
		slower[i] = v * 1.2
		noisy[i] = v * (1 + 0.3*float64(i%2))
	}
	base := write("a.json", steady, 100)
	if err := runCheck(man, base, write("same.json", steady, 100)); err != nil {
		t.Errorf("identical sets: %v", err)
	}
	if err := runCheck(man, base, write("slow.json", slower, 100)); err == nil {
		t.Error("a 20% slower set passed a 10% bound")
	}
	if err := runCheck(man, base, write("noisy.json", noisy, 100)); err != nil {
		t.Errorf("a set noisier than the bound is unresolved, not regressed: %v", err)
	}
	if err := runCheck(man, base, write("moved.json", steady, 101)); err == nil {
		t.Error("a moved simulated statistic passed")
	}
}
