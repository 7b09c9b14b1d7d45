// Command fxqos demonstrates the paper's §7.3 negotiation model: programs
// hand the network their [l(), b(), c] characterization; the network
// hands back the processor count P (and per-connection burst bandwidth B)
// that minimizes the burst interval, then admits programs until capacity
// is exhausted.
//
// By default the characterizations are the paper's analytic laws
// (N=512 calibration). With -catalog they come from the spectral-model
// catalog instead: fitted models are looked up (fitting them first
// through the experiment farm on a cold catalog), each fitted (P,
// burst, interval) point becomes an admission point, and the command
// reports how long the simulate-then-admit path took against the
// catalog-lookup admission — the fit-once, admit-in-microseconds trade.
//
// Usage:
//
//	fxqos -capacity 1.25e6 -maxp 32
//	fxqos -catalog .fxcache/models -cache .fxcache -p 2,4 -json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"fxnet"
	"fxnet/internal/version"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fxqos: ")
	var (
		capacity   = flag.Float64("capacity", 1.25e6, "network capacity in bytes/s")
		maxP       = flag.Int("maxp", 32, "largest processor count the cluster offers")
		catalogDir = flag.String("catalog", "", "admit from fitted models in this catalog directory (empty = analytic laws)")
		cacheDir   = flag.String("cache", ".fxcache", "run-cache directory for cold-catalog fits")
		programs   = flag.String("programs", "", "comma-separated programs (empty = all; -catalog mode only)")
		pList      = flag.String("p", "2,4", "processor counts to fit (-catalog mode only)")
		spikes     = flag.Int("spikes", 0, "fit spike budget (0 = default 8; -catalog mode only)")
		jobs       = flag.Int("j", 0, "concurrent simulations (0 = GOMAXPROCS; -catalog mode only)")
		seed       = flag.Int64("seed", 42, "run seed (-catalog mode only)")
		jsonOut    = flag.Bool("json", false, "emit machine-readable timings (-catalog mode only)")
		ver        = version.Register()
	)
	flag.Parse()
	version.ExitIfRequested(ver)

	if *catalogDir != "" {
		catalogMode(catalogOptions{
			CatalogDir: *catalogDir, CacheDir: *cacheDir,
			Programs: *programs, PList: *pList,
			Spikes: *spikes, Jobs: *jobs, Seed: *seed,
			Capacity: *capacity, MaxP: *maxP, JSON: *jsonOut,
		})
		return
	}
	analyticMode(*capacity, *maxP)
}

func analyticMode(capacity float64, maxP int) {
	// Characterizations of the measured kernels (N=512 calibration).
	progs := []fxnet.QoSProgram{
		{Name: "sor", Pattern: fxnet.Neighbor,
			Local: func(P int) float64 { return 512.0 * 510 / float64(P) / 38500 },
			Burst: func(P int) float64 { return 512 * 4 }},
		{Name: "2dfft", Pattern: fxnet.AllToAll,
			Local: func(P int) float64 { return 2 * 512 * 23040 / float64(P) / 8.4e6 },
			Burst: func(P int) float64 { return 512 * 512 * 8 / float64(P*P) }},
		{Name: "t2dfft", Pattern: fxnet.Partition,
			Local: func(P int) float64 { return 512 * 23040 / float64(P) / 2.5e6 },
			Burst: func(P int) float64 { return 4 * 512 * 512 * 8 / float64(P*P) }},
		{Name: "seq", Pattern: fxnet.Broadcast,
			Local: func(P int) float64 { return 40.0 / 160 },
			Burst: func(P int) float64 { return 40 * 16 }},
		{Name: "hist", Pattern: fxnet.Tree,
			Local: func(P int) float64 { return 512.0 * 512 / float64(P) / 364000 },
			Burst: func(P int) float64 { return 256 * 8 }},
	}

	fmt.Printf("network capacity: %.0f KB/s, cluster size ≤ %d\n\n", capacity/1000, maxP)

	// Per-program negotiation on an empty network: how P trades against tbi.
	fmt.Println("negotiation on an idle network:")
	fmt.Printf("%-8s %4s %12s %12s %12s %14s\n", "program", "P", "B (KB/s)", "burst (s)", "tbi (s)", "mean (KB/s)")
	for _, p := range progs {
		net := fxnet.NewQoSNetwork(capacity)
		off, err := net.Negotiate(p, maxP)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s %4d %12.1f %12.4f %12.4f %14.1f\n",
			off.Program, off.P, off.BurstBandwidth/1000, off.BurstSeconds,
			off.BurstInterval, off.MeanBandwidth/1000)
	}

	// Admission: programs arrive in order and share the medium; later
	// arrivals see less free capacity and receive degraded offers.
	fmt.Println("\nsequential admission (shared medium):")
	net := fxnet.NewQoSNetwork(capacity)
	for _, p := range progs {
		off, err := net.Admit(p, maxP)
		if err != nil {
			fmt.Printf("%-8s REJECTED: %v\n", p.Name, err)
			continue
		}
		fmt.Printf("%-8s admitted with P=%-3d tbi=%8.4fs, remaining capacity %8.1f KB/s\n",
			off.Program, off.P, off.BurstInterval, net.Available()/1000)
	}
}

type catalogOptions struct {
	CatalogDir, CacheDir string
	Programs, PList      string
	Spikes, Jobs         int
	Seed                 int64
	Capacity             float64
	MaxP                 int
	JSON                 bool
}

// admitReps is how many warm lookup-and-negotiate passes are timed; the
// minimum is reported (the steady-state cost, free of scheduler noise).
const admitReps = 64

type programTiming struct {
	Program    string  `json:"program"`
	FitMs      float64 `json:"fit_ms"` // simulate(or run-cache)-then-fit wall, all P
	CatalogHit bool    `json:"catalog_hit"`
	AdmitUs    float64 `json:"admit_us"` // catalog lookup + negotiate, min of reps
	Speedup    float64 `json:"speedup"`  // fit_ms·1000 / admit_us
	P          int     `json:"p"`
	BurstKBps  float64 `json:"burst_kbps"`
	TbiS       float64 `json:"tbi_s"`
	MeanKBps   float64 `json:"mean_kbps"`
}

func catalogMode(o catalogOptions) {
	names := fxnet.Programs()
	if o.Programs != "" {
		names = strings.Split(o.Programs, ",")
	}
	var ps []int
	for _, f := range strings.Split(o.PList, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || v <= 0 {
			log.Fatalf("bad processor count %q", f)
		}
		ps = append(ps, v)
	}

	farm, err := fxnet.NewFarm(fxnet.FarmOptions{Workers: o.Jobs, CacheDir: o.CacheDir, Memoize: true})
	if err != nil {
		log.Fatal(err)
	}
	cat, err := fxnet.OpenCatalog(o.CatalogDir)
	if err != nil {
		log.Fatal(err)
	}
	ft := fxnet.NewModelFitter(farm, cat)

	// Phase 1 — ensure every (program × P) has a fitted model, timing the
	// simulate-then-fit path per program. On a warm catalog this is a
	// hit and the wall collapses to the lookup.
	timings := make([]programTiming, 0, len(names))
	for _, name := range names {
		name = strings.TrimSpace(name)
		pt := programTiming{Program: name, CatalogHit: true}
		for _, p := range ps {
			e, prov, err := ft.Fit(context.Background(), fxnet.QuickConfig(name, p, o.Seed), fxnet.FitOptions{Spikes: o.Spikes})
			if err != nil {
				log.Fatalf("fit %s P=%d: %v", name, p, err)
			}
			_ = e
			pt.FitMs += float64(prov.Wall.Microseconds()) / 1000
			if !prov.CatalogHit {
				pt.CatalogHit = false
			}
		}
		timings = append(timings, pt)
	}

	// Phase 2 — admission from the catalog alone: tabulate the fitted
	// points and negotiate. This is the path a broker takes per request.
	for i := range timings {
		pt := &timings[i]
		var off fxnet.QoSOffer
		best := time.Duration(1<<62 - 1)
		for range admitReps {
			t0 := time.Now()
			prog, err := cat.Program(pt.Program)
			if err != nil {
				log.Fatalf("catalog program %s: %v", pt.Program, err)
			}
			net := fxnet.NewQoSNetwork(o.Capacity)
			off, err = net.Negotiate(prog, o.MaxP)
			if err != nil {
				log.Fatalf("negotiate %s: %v", pt.Program, err)
			}
			if d := time.Since(t0); d < best {
				best = d
			}
		}
		pt.AdmitUs = float64(best.Nanoseconds()) / 1000
		pt.Speedup = pt.FitMs * 1000 / pt.AdmitUs
		pt.P, pt.BurstKBps, pt.TbiS, pt.MeanKBps =
			off.P, off.BurstBandwidth/1000, off.BurstInterval, off.MeanBandwidth/1000
	}

	st := farm.Stats()
	fmt.Fprintf(os.Stderr, "farm: executed=%d cache-hits=%d; catalog %s: %d entries\n",
		st.Executed, st.CacheHits, cat.Dir(), cat.Len())

	if o.JSON {
		minSpeedup := 0.0
		for i, t := range timings {
			if i == 0 || t.Speedup < minSpeedup {
				minSpeedup = t.Speedup
			}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(map[string]any{
			"capacity_bps": o.Capacity,
			"maxp":         o.MaxP,
			"p_fitted":     ps,
			"programs":     timings,
			"min_speedup":  minSpeedup,
			"executed":     st.Executed,
		}); err != nil {
			log.Fatal(err)
		}
		return
	}

	fmt.Printf("catalog admission (capacity %.0f KB/s, models from %s):\n", o.Capacity/1000, o.CatalogDir)
	fmt.Printf("%-8s %4s %12s %12s %14s %12s %12s %10s\n",
		"program", "P", "B (KB/s)", "tbi (s)", "mean (KB/s)", "fit (ms)", "admit (µs)", "speedup")
	for _, t := range timings {
		fmt.Printf("%-8s %4d %12.1f %12.4f %14.1f %12.1f %12.1f %9.0fx\n",
			t.Program, t.P, t.BurstKBps, t.TbiS, t.MeanKBps, t.FitMs, t.AdmitUs, t.Speedup)
	}

	// Sequential admission from fitted models, like the analytic mode.
	fmt.Println("\nsequential admission (shared medium, fitted models):")
	net := fxnet.NewQoSNetwork(o.Capacity)
	for _, t := range timings {
		prog, err := cat.Program(t.Program)
		if err != nil {
			log.Fatal(err)
		}
		off, err := net.Admit(prog, o.MaxP)
		if err != nil {
			fmt.Printf("%-8s REJECTED: %v\n", t.Program, err)
			continue
		}
		fmt.Printf("%-8s admitted with P=%-3d tbi=%8.4fs, remaining capacity %8.1f KB/s\n",
			off.Program, off.P, off.BurstInterval, net.Available()/1000)
	}
}
