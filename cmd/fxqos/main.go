// Command fxqos demonstrates the paper's §7.3 negotiation model: programs
// hand the network their [l(), b(), c] characterization; the network
// hands back the processor count P (and per-connection burst bandwidth B)
// that minimizes the burst interval, then admits programs until capacity
// is exhausted.
//
// It owns no characterization and runs no simulation. By default it
// negotiates the five kernels' analytic laws, read from the kernel
// registry fxnetd's /v1/qos/negotiate and Degrade use, so the table here
// is the daemon's dry-run answer. With -catalog it negotiates the fitted
// models that catalog directory already holds (each fitted (P, burst,
// interval) point is an admission point) and names the `fxmodel fit`
// command to run for the programs it holds none of.
//
// Usage:
//
//	fxqos -capacity 1.25e6 -maxp 32
//	fxqos -catalog .fxcache/models
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"fxnet/internal/catalog"
	"fxnet/internal/core"
	"fxnet/internal/kernels"
	"fxnet/internal/qos"
	"fxnet/internal/version"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fxqos: ")
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("fxqos", flag.ExitOnError)
	var (
		capacity   = fs.Float64("capacity", 1.25e6, "network capacity in bytes/s")
		maxP       = fs.Int("maxp", 32, "largest processor count the cluster offers")
		catalogDir = fs.String("catalog", "", "negotiate the fitted models in this catalog directory (empty = the kernels' analytic laws)")
		ver        = version.Register(fs)
	)
	fs.Parse(args)
	version.ExitIfRequested(ver)

	var progs []qos.Program
	from := ""
	if *catalogDir == "" {
		for _, spec := range kernels.All {
			progs = append(progs, spec.QoS(spec.Params))
		}
	} else {
		var err error
		if progs, err = catalogPrograms(*catalogDir, stderr); err != nil {
			return err
		}
		from = ", fitted models"
	}

	fmt.Fprintf(stdout, "network capacity: %.0f KB/s, cluster size ≤ %d\n\n", *capacity/1000, *maxP)

	// Per-program negotiation on an empty network: how P trades against tbi.
	fmt.Fprintf(stdout, "negotiation on an idle network%s:\n", from)
	fmt.Fprintf(stdout, "%-8s %4s %12s %12s %12s %14s\n", "program", "P", "B (KB/s)", "burst (s)", "tbi (s)", "mean (KB/s)")
	for _, p := range progs {
		off, err := qos.NewNetwork(*capacity).Negotiate(p, *maxP)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%-8s %4d %12.1f %12.4f %12.4f %14.1f\n",
			off.Program, off.P, off.BurstBandwidth/1000, off.BurstSeconds,
			off.BurstInterval, off.MeanBandwidth/1000)
	}

	// Admission: programs arrive in order and share the medium; later
	// arrivals see less free capacity and receive degraded offers.
	fmt.Fprintf(stdout, "\nsequential admission (shared medium%s):\n", from)
	net := qos.NewNetwork(*capacity)
	for _, p := range progs {
		off, err := net.Admit(p, *maxP)
		if err != nil {
			fmt.Fprintf(stdout, "%-8s REJECTED: %v\n", p.Name, err)
			continue
		}
		fmt.Fprintf(stdout, "%-8s admitted with P=%-3d tbi=%8.4fs, remaining capacity %8.1f KB/s\n",
			off.Program, off.P, off.BurstInterval, net.Available()/1000)
	}
	return nil
}

// catalogPrograms tabulates one characterization per program the catalog
// holds a fitted model of, in registry order. Fitting is fxmodel's job:
// programs with no model are named on stderr with the command that fits
// them, and a catalog that holds none at all is an error.
func catalogPrograms(dir string, stderr io.Writer) ([]qos.Program, error) {
	cat, err := catalog.Open(dir)
	if err != nil {
		return nil, err
	}
	entries, err := cat.List()
	if err != nil {
		return nil, err
	}
	held := map[string]bool{}
	for _, e := range entries {
		held[e.Program] = true
	}
	var progs []qos.Program
	var missing []string
	for _, name := range core.ProgramNames() {
		if !held[name] {
			missing = append(missing, name)
			continue
		}
		p, err := cat.Program(name)
		if err != nil {
			return nil, err
		}
		progs = append(progs, p)
	}
	if len(progs) == 0 {
		return nil, fmt.Errorf("catalog %s holds no fitted model: run `fxmodel fit -catalog %s` first", dir, dir)
	}
	if len(missing) > 0 {
		fmt.Fprintf(stderr, "fxqos: no fitted model for %s: run `fxmodel fit -catalog %s -programs %s`\n",
			strings.Join(missing, ", "), dir, strings.Join(missing, ","))
	}
	return progs, nil
}
