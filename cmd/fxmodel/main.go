// Command fxmodel builds and manages the paper's §7.2 analytic traffic
// models. With a subcommand it works the spectral-model catalog — fit
// once, look up forever:
//
//	fxmodel fit -catalog .fxcache/models -cache .fxcache -programs sor,2dfft -p 2,4
//	fxmodel ls  -catalog .fxcache/models -program sor
//	fxmodel get -catalog .fxcache/models <run-key> -json
//
// fit sweeps (program × P) through the experiment farm and stores one
// deterministic .fxmodel entry per run key; a warm run cache fits
// without simulating, and a warm catalog answers without fitting.
//
// Without a subcommand it is the original trace fitter: compute the
// bandwidth power spectrum of a measured trace, truncate the implied
// Fourier series to the strongest spikes, report the fit, and
// optionally write a synthetic trace regenerated from the model.
//
// Usage:
//
//	fxrun -program 2dfft -o fft.trace
//	fxmodel -in fft.trace -spikes 16
//	fxmodel -in fft.trace -spikes 16 -synth synth.trace -duration 60
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

	"fxnet/internal/analysis"
	"fxnet/internal/catalog"
	"fxnet/internal/core"
	"fxnet/internal/farm"
	"fxnet/internal/model"
	"fxnet/internal/sim"
	"fxnet/internal/trace"
	"fxnet/internal/version"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fxmodel: ")
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "fit":
			fitCmd(os.Args[2:])
			return
		case "get":
			getCmd(os.Args[2:])
			return
		case "ls":
			lsCmd(os.Args[2:])
			return
		}
	}
	traceCmd()
}

// parseInts parses a comma-separated list of positive ints.
func parseInts(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.Atoi(f)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad processor count %q", f)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty processor list %q", s)
	}
	return out, nil
}

// entryOut is one fitted model on the wire: the catalog entry plus the
// fit's provenance.
type entryOut struct {
	catalog.EntryJSON
	CatalogHit bool    `json:"catalog_hit"`
	RunCached  bool    `json:"run_cached"`
	WallMs     float64 `json:"wall_ms"`
}

func fitCmd(args []string) {
	fs := flag.NewFlagSet("fxmodel fit", flag.ExitOnError)
	var (
		catalogDir = fs.String("catalog", ".fxcache/models", "model catalog directory")
		cacheDir   = fs.String("cache", ".fxcache", "run-cache directory shared with the farm (empty = no disk cache)")
		programs   = fs.String("programs", "", "comma-separated programs to fit (empty = all)")
		pList      = fs.String("p", "4", "comma-separated processor counts")
		seed       = fs.Int64("seed", 42, "run seed")
		spikes     = fs.Int("spikes", 0, "spike budget k (0 = default 8)")
		jobs       = fs.Int("j", 0, "concurrent simulations (0 = GOMAXPROCS)")
		jsonOut    = fs.Bool("json", false, "emit the fitted models as JSON")
	)
	fs.Parse(args)

	names := core.ProgramNames()
	if *programs != "" {
		names = strings.Split(*programs, ",")
	}
	ps, err := parseInts(*pList)
	if err != nil {
		log.Fatal(err)
	}
	var cfgs []core.RunConfig
	for _, name := range names {
		for _, p := range ps {
			cfgs = append(cfgs, core.QuickConfig(strings.TrimSpace(name), p, *seed))
		}
	}

	f, err := farm.Open(nil, *cacheDir, farm.Options{Workers: *jobs, Memoize: true})
	if err != nil {
		log.Fatal(err)
	}
	c, err := catalog.Open(*catalogDir)
	if err != nil {
		log.Fatal(err)
	}
	ft := catalog.NewFitter(f, c)

	results := ft.Sweep(context.Background(), cfgs, catalog.Options{Spikes: *spikes})
	var out []entryOut
	for _, r := range results {
		if r.Err != nil {
			log.Fatalf("%s P=%d: %v", r.Config.Program, r.Config.P, r.Err)
		}
		out = append(out, entryOut{
			EntryJSON:  catalog.ToJSON(r.Entry),
			CatalogHit: r.Prov.CatalogHit,
			RunCached:  r.Prov.RunCached,
			WallMs:     float64(r.Prov.Wall.Microseconds()) / 1000,
		})
	}
	st := f.Stats()
	if *jsonOut {
		emitJSON(map[string]any{
			"models": out, "count": len(out),
			"fits": ft.Fits(), "executed": st.Executed, "run_cache_hits": st.CacheHits,
		})
		return
	}
	fmt.Printf("%-8s %3s %-12s %6s %9s %11s %11s %8s  %s\n",
		"program", "P", "key", "spikes", "f0 (Hz)", "meas KB/s", "model KB/s", "err %", "how")
	for _, e := range out {
		how := "simulated"
		switch {
		case e.CatalogHit:
			how = "catalog"
		case e.RunCached:
			how = "run cache"
		}
		fmt.Printf("%-8s %3d %-12s %6d %9.3f %11.1f %11.1f %8.3f  %s\n",
			e.Program, e.P, e.Key[:12], e.Spikes, float64(e.FundamentalHz),
			float64(e.MeasuredMeanKBps), float64(e.ModelMeanKBps),
			100*float64(e.MeanRelErr), how)
	}
	fmt.Printf("catalog %s: %d entries (%d fits, %d simulations, %d run-cache hits)\n",
		c.Dir(), c.Len(), ft.Fits(), st.Executed, st.CacheHits)
}

func getCmd(args []string) {
	fs := flag.NewFlagSet("fxmodel get", flag.ExitOnError)
	var (
		catalogDir = fs.String("catalog", ".fxcache/models", "model catalog directory")
		jsonOut    = fs.Bool("json", false, "emit the entry as JSON")
	)
	fs.Parse(args)
	if fs.NArg() != 1 {
		log.Fatal("usage: fxmodel get [-catalog DIR] [-json] <run-key>")
	}
	c, err := catalog.Open(*catalogDir)
	if err != nil {
		log.Fatal(err)
	}
	e, ok := c.Get(fs.Arg(0))
	if !ok {
		log.Fatalf("no fitted model %q in %s", fs.Arg(0), c.Dir())
	}
	if *jsonOut {
		emitJSON(catalog.ToJSON(e))
		return
	}
	fmt.Printf("%s P=%d seed=%d key=%s\n", e.Program, e.P, e.Seed, e.Key)
	fmt.Printf("fit: %d-spike budget, %d components, min separation %.3f Hz\n",
		e.Spikes, len(e.Model.Components), e.MinSepHz)
	fmt.Printf("series: %d samples at dt=%.4fs\n", e.SeriesN, e.SeriesDT)
	fmt.Printf("bandwidth: measured %.1f KB/s, model %.1f KB/s (err %.3f%%), peak %.1f KB/s\n",
		e.MeasuredMeanKBps, e.ModelMeanKBps, 100*e.MeanRelErr, e.PeakKBps)
	fmt.Printf("fidelity: NRMSE=%.4f correlation=%.3f energy=%.3f fundamental=%.3f Hz\n",
		e.NRMSE, e.Correlation, e.EnergyFraction, e.FundamentalHz)
	fmt.Printf("model: %s\n", &e.Model)
}

func lsCmd(args []string) {
	fs := flag.NewFlagSet("fxmodel ls", flag.ExitOnError)
	var (
		catalogDir = fs.String("catalog", ".fxcache/models", "model catalog directory")
		program    = fs.String("program", "", "only this program")
		p          = fs.Int("p", 0, "only this processor count")
		jsonOut    = fs.Bool("json", false, "emit the listing as JSON")
	)
	fs.Parse(args)
	c, err := catalog.Open(*catalogDir)
	if err != nil {
		log.Fatal(err)
	}
	entries, err := c.List()
	if err != nil {
		log.Fatal(err)
	}
	var out []catalog.EntryJSON
	for _, e := range entries {
		if *program != "" && e.Program != *program {
			continue
		}
		if *p != 0 && e.P != *p {
			continue
		}
		out = append(out, catalog.ToJSON(e))
	}
	if *jsonOut {
		emitJSON(map[string]any{"models": out, "count": len(out)})
		return
	}
	fmt.Printf("%-8s %3s %-12s %6s %9s %11s %8s\n",
		"program", "P", "key", "spikes", "f0 (Hz)", "mean KB/s", "err %")
	for _, e := range out {
		fmt.Printf("%-8s %3d %-12s %6d %9.3f %11.1f %8.3f\n",
			e.Program, e.P, e.Key[:12], e.Spikes, float64(e.FundamentalHz),
			float64(e.MeasuredMeanKBps), 100*float64(e.MeanRelErr))
	}
	fmt.Printf("%d model(s) in %s\n", len(out), c.Dir())
}

func emitJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		log.Fatal(err)
	}
}

// traceCmd is the original flag surface: fit a model to one measured
// trace, optionally synthesizing a trace from it.
func traceCmd() {
	var (
		in       = flag.String("in", "", "input binary trace (required)")
		spikes   = flag.Int("spikes", 8, "number of spectral spikes to retain")
		windowMs = flag.Int("window-ms", 10, "bandwidth averaging window (ms)")
		synth    = flag.String("synth", "", "write a synthetic trace generated from the model")
		duration = flag.Float64("duration", 30, "synthetic trace duration (s)")
		pktSize  = flag.Int("pktsize", 1460, "synthetic packet size (captured bytes ≈ pktsize+58)")
		jsonOut  = flag.Bool("json", false, "emit the fitted model as JSON")
		ver      = version.Register(flag.CommandLine)
	)
	flag.Parse()
	version.ExitIfRequested(ver)
	if *in == "" {
		flag.Usage()
		os.Exit(2)
	}

	f, err := os.Open(*in)
	if err != nil {
		log.Fatal(err)
	}
	tr, err := trace.Read(f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}

	bin := sim.Duration(*windowMs) * 1_000_000
	series, dt := analysis.BinnedBandwidth(tr, bin)
	spec := analysis.Spectrum(tr, bin)
	m, met := model.Fit(series, dt, *spikes, 2*spec.DF)

	if *jsonOut {
		comps := make([]map[string]float64, 0, len(m.Components))
		for _, c := range m.Components {
			comps = append(comps, map[string]float64{
				"freq_hz": c.Freq, "re": real(c.Coeff), "im": imag(c.Coeff),
			})
		}
		emitJSON(map[string]any{
			"dc_kbps": m.DC, "components": comps,
			"nrmse": met.NRMSE, "correlation": met.Correlation, "energy_fraction": met.EnergyFraction,
		})
	} else {
		fmt.Printf("trace: %d packets over %.1f s, mean %.1f KB/s\n",
			tr.Len(), tr.Duration().Seconds(), analysis.AverageBandwidthKBps(tr))
		fmt.Printf("model (%d spikes): %s\n", len(m.Components), m)
		fmt.Printf("fit: NRMSE=%.4f correlation=%.3f energy-fraction=%.3f\n",
			met.NRMSE, met.Correlation, met.EnergyFraction)
	}

	if *synth == "" {
		return
	}
	st, err := m.GenerateTrace(sim.Duration(*duration*1e9), bin, *pktSize, 0, 1)
	if err != nil {
		log.Fatal(err)
	}
	st.Meta["model"] = m.String()
	out, err := os.Create(*synth)
	if err != nil {
		log.Fatal(err)
	}
	defer out.Close()
	if err := st.WriteBinary(out); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("synthetic: %d packets, mean %.1f KB/s → %s\n",
		st.Len(), analysis.AverageBandwidthKBps(st), *synth)
}
