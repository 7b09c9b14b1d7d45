// Shared farm helpers for the root benchmarks: the paper ablations
// (bench_ablation_test.go) and the §7.3 model validation below. The
// paper's figures themselves are rendered by cmd/fxrepro and checked by
// its BenchmarkPaperFigures.
//
// Run with: go test -run '^$' -bench . -benchtime 1x .
package fxnet_test

import (
	"fmt"
	"os"
	"sync"
	"testing"

	"fxnet"
	"fxnet/internal/core"
	"fxnet/internal/farm"
	"fxnet/internal/kernels"
	"fxnet/internal/qos"
)

// benchFarm shares runs across all benchmarks in the process: full
// paper-scale runs are expensive (seconds each), so identical
// configurations are memoized in memory. Set FXNET_BENCH_CACHE to a
// directory to persist runs on disk across `go test -bench` invocations.
var benchFarm = func() *farm.Farm {
	f, err := farm.Open(nil, os.Getenv("FXNET_BENCH_CACHE"), farm.Options{Memoize: true})
	if err != nil {
		panic(err)
	}
	return f
}()

var (
	cacheMu    sync.Mutex
	printOnces = map[string]*sync.Once{}
)

// farmRun executes one configuration through the shared farm.
func farmRun(b *testing.B, cfg fxnet.RunConfig) (*core.Result, *core.Report) {
	b.Helper()
	res, rep, err := benchFarm.Run(cfg)
	if err != nil {
		b.Fatalf("%s: %v", cfg.Program, err)
	}
	return res, rep
}

// farmBatch executes several configurations concurrently, returning
// results in submission order.
func farmBatch(b *testing.B, jobs []farm.Job) []farm.JobResult {
	b.Helper()
	results := benchFarm.RunBatch(jobs)
	for _, jr := range results {
		if jr.Err != nil {
			b.Fatalf("%s: %v", jr.Job.Label, jr.Err)
		}
	}
	return results
}

func cachedRun(b *testing.B, program string) (*core.Result, *core.Report) {
	b.Helper()
	return farmRun(b, fxnet.RunConfig{Program: program, Seed: 42})
}

// printOnce emits a benchmark's table a single time per process.
func printOnce(key string, f func()) {
	cacheMu.Lock()
	once, ok := printOnces[key]
	if !ok {
		once = &sync.Once{}
		printOnces[key] = once
	}
	cacheMu.Unlock()
	once.Do(f)
}

// BenchmarkSection73ModelValidation closes the §7.3 loop end to end: the
// [l(), b(), c] characterization predicts the 2DFFT's burst interval
// tbi(P) = l(P) + comm(P); running the program on the simulated testbed
// at each P must measure a burst period within 25% of the prediction.
// This is the validation the paper leaves as future work.
func BenchmarkSection73ModelValidation(b *testing.B) {
	const n = 512
	spec, _ := kernels.Lookup("2dfft")
	law := spec.QoS(fxnet.KernelParams{N: n})

	type row struct {
		P                   int
		predicted, measured float64
	}
	ps := []int{2, 4, 8}
	jobs := make([]farm.Job, len(ps))
	for j, P := range ps {
		jobs[j] = farm.Job{Label: fmt.Sprintf("2dfft/P%d", P), Config: fxnet.RunConfig{
			Program: "2dfft", Seed: 31, P: P,
			Params:         fxnet.KernelParams{N: n, Iters: 20},
			DisableDesched: true,
		}}
	}
	var rows []row
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for j, jr := range farmBatch(b, jobs) {
			P := ps[j]
			spec := fxnet.SpectrumOf(jr.Result.Trace, fxnet.PaperWindow)
			measured := 1 / spec.DominantFreq()
			totalBytes := float64(P*(P-1)) * law.Burst(P) * 1.06 // + header overhead
			predicted := law.Local(P) + totalBytes/qos.EffectiveCapacityBps
			rows = append(rows, row{P: P, predicted: predicted, measured: measured})
		}
	}
	for _, r := range rows {
		ratio := r.measured / r.predicted
		if ratio < 0.75 || ratio > 1.33 {
			b.Fatalf("P=%d: measured period %.2fs vs predicted %.2fs (ratio %.2f)",
				r.P, r.measured, r.predicted, ratio)
		}
	}
	printOnce("sec73v", func() {
		fmt.Fprintln(os.Stdout, "\n=== §7.3 validation: predicted vs measured burst interval (2DFFT) ===")
		fmt.Fprintf(os.Stdout, "%4s %14s %14s\n", "P", "predicted (s)", "measured (s)")
		for _, r := range rows {
			fmt.Fprintf(os.Stdout, "%4d %14.2f %14.2f\n", r.P, r.predicted, r.measured)
		}
	})
}
