package main

import "fmt"

// -check compares two result files, row by row (metric × workload),
// against the bounds in BENCHMARK.json — the same rule the driver
// applies to two sets of runs of one commit, or to parent and change:
//
//	ok          b's median is no worse than a's by more than the bound
//	regressed   it is worse by more than the bound
//	unresolved  either side's spread (quartile distance ÷ median, over
//	            its runs) is wider than the bound, so the row decides
//	            nothing either way
//
// The simulated statistics in exactMetrics must be identical: host speed
// may move, the simulation may not.

// exactMetrics are the traced pass's simulated statistics.
var exactMetrics = []string{
	"ethernet.frames", "ethernet.collisions", "ethernet.wire_bytes",
	"sim.engine_windows", "sim.engine_mean_active", "sim.engine_cross_msgs", "sim.engine_null_publishes",
	"model.fit_nrmse", "trace.bytes_per_pkt", "core.leaked_goroutines_per_run", "harness.paper_bw_relerr",
}

// values collects one metric's value from every run of one workload
// and pass.
func (f *resultFile) values(workload string, trace int, metric string) []float64 {
	var xs []float64
	for _, r := range f.Runs {
		if r.Workload == workload && r.Trace == trace {
			if m, ok := r.Metrics[metric]; ok {
				xs = append(xs, m.Value)
			}
		}
	}
	return xs
}

func spread(xs []float64) float64 {
	q1, med, q3 := quartiles(xs)
	if len(xs) < 2 || med == 0 {
		return 0
	}
	return (q3 - q1) / med
}

func runCheck(man *manifest, pathA, pathB string) error {
	var a, b resultFile
	if err := readJSON(pathA, &a); err != nil {
		return err
	}
	if err := readJSON(pathB, &b); err != nil {
		return err
	}
	regressed := 0
	for _, w := range man.Workloads {
		for _, d := range man.EndToEnd {
			xa, xb := a.values(w.Name, 0, d.Name), b.values(w.Name, 0, d.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			ma, mb := median(xa), median(xb)
			worse := (mb - ma) / ma
			if d.Better == "higher" {
				worse = (ma - mb) / ma
			}
			wide := max(spread(xa), spread(xb))
			verdict := "ok"
			switch {
			case wide > d.Bound:
				verdict = "unresolved"
			case worse > d.Bound:
				verdict = "regressed"
				regressed++
			}
			fmt.Printf("%-16s %-14s a=%-12.6g b=%-12.6g worse=%+6.2f%% spread=%5.2f%% bound=%g%% n=%d/%d  %s\n",
				w.Name, d.Name, ma, mb, 100*worse, 100*wide, 100*d.Bound, len(xa), len(xb), verdict)
		}
		for _, name := range exactMetrics {
			// These depend on the seed, so compare run by run.
			xa, xb := a.values(w.Name, 1, name), b.values(w.Name, 1, name)
			for i := 0; i < min(len(xa), len(xb)); i++ {
				if xa[i] != xb[i] {
					fmt.Printf("%-16s %-32s run %d: a=%v b=%v  regressed (must repeat exactly)\n",
						w.Name, name, i, xa[i], xb[i])
					regressed++
				}
			}
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d rows regressed", regressed)
	}
	return nil
}
