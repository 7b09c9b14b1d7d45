// Command fxmodel works the catalog of the paper's §7.2 analytic traffic
// models — fit once, look up forever:
//
//	fxmodel fit -catalog .fxcache/models -cache .fxcache -programs sor,2dfft -p 2,4
//	fxmodel ls  -catalog .fxcache/models -program sor -json
//
// fit sweeps (program × P) through the experiment farm and stores one
// deterministic .fxmodel entry per run key; a warm run cache fits
// without simulating, and a warm catalog answers without fitting. ls
// lists the entries, as a table or in the JSON form /v1/models serves.
// To fit one measured trace, use fxanalyze -mode model.
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

	"fxnet/internal/catalog"
	"fxnet/internal/core"
	"fxnet/internal/farm"
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
		case "ls":
			lsCmd(os.Args[2:])
			return
		}
	}
	ver := version.Register(flag.CommandLine)
	flag.Parse()
	version.ExitIfRequested(ver)
	log.Fatal("usage: fxmodel fit|ls [flags]")
}

// parseInts parses a comma-separated list of positive ints.
func parseInts(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad processor count %q", f)
		}
		out = append(out, v)
	}
	return out, nil
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
	fmt.Printf("%-8s %3s %-12s %6s %9s %11s %11s %8s  %s\n",
		"program", "P", "key", "spikes", "f0 (Hz)", "meas KB/s", "model KB/s", "err %", "how")
	for _, r := range results {
		if r.Err != nil {
			log.Fatalf("%s P=%d: %v", r.Config.Program, r.Config.P, r.Err)
		}
		how := "simulated"
		switch {
		case r.Prov.CatalogHit:
			how = "catalog"
		case r.Prov.RunCached:
			how = "run cache"
		}
		e := r.Entry
		fmt.Printf("%-8s %3d %-12s %6d %9.3f %11.1f %11.1f %8.3f  %s\n",
			e.Program, e.P, e.Key[:12], e.Spikes, e.FundamentalHz,
			e.MeasuredMeanKBps, e.ModelMeanKBps, 100*e.MeanRelErr, how)
	}
	st := f.Stats()
	fmt.Printf("catalog %s: %d entries (%d fits, %d simulations, %d run-cache hits)\n",
		c.Dir(), c.Len(), ft.Fits(), st.Executed, st.CacheHits)
}

func lsCmd(args []string) {
	fs := flag.NewFlagSet("fxmodel ls", flag.ExitOnError)
	var (
		catalogDir = fs.String("catalog", ".fxcache/models", "model catalog directory")
		program    = fs.String("program", "", "only this program")
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
