// Command fxrepro regenerates every table and figure of the paper in one
// run: figures 1–7 over the five Fx kernels, figures 8–11 and the §6.2
// text numbers for AIRSHED, the §7.2 spectral models, and the §7.3 QoS
// negotiation. Measured values print next to the paper's.
//
// Runs are submitted through the experiment farm (internal/farm) as
// stream jobs — every table is built from Report fields alone, so each
// run folds its characterization during the simulation and no trace is
// materialized. -j executes them on a bounded worker pool and -cache
// reuses results from a content-addressed on-disk cache across
// invocations. The printed tables are byte-identical for any -j and any
// cache state.
//
// A full run takes a few minutes serially; -quick reduces problem sizes
// for a fast smoke pass (numbers then differ from the paper regime).
package main

import (
	"flag"
	"log"
	"os"

	"fxnet/internal/profiling"
	"fxnet/internal/version"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fxrepro: ")
	var (
		quick = flag.Bool("quick", false, "reduced problem sizes (fast, non-paper regime)")
		tiny  = flag.Bool("tiny", false, "minimal problem sizes (CI smoke; implies non-paper regime)")
		seed  = flag.Int64("seed", 42, "simulation seed")
		csv   = flag.String("csvdir", "", "optional directory for bandwidth-series CSVs")
		jobs  = flag.Int("j", 0, "concurrent simulations (0 = GOMAXPROCS)")
		cache = flag.String("cache", "", "content-addressed run-cache directory (e.g. .fxcache)")
		prof  = profiling.Register(flag.CommandLine)
		ver   = version.Register(flag.CommandLine)
	)
	flag.Parse()
	version.ExitIfRequested(ver)

	stopProf, err := prof.Start()
	if err != nil {
		log.Fatal(err)
	}

	_, err = repro(reproOptions{
		Quick:    *quick,
		Tiny:     *tiny,
		Seed:     *seed,
		CSVDir:   *csv,
		Jobs:     *jobs,
		CacheDir: *cache,
	}, os.Stdout, os.Stderr)
	if err != nil {
		log.Fatal(err)
	}
	if err := stopProf(); err != nil {
		log.Fatal(err)
	}
}
