package catalog

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"fxnet/internal/core"
	"fxnet/internal/farm"
	"fxnet/internal/qos"
)

// tinyConfig is the smallest sor run whose bandwidth series still has
// spectral structure to fit (the 32/4 sizing used elsewhere yields a
// 3-sample series — pure DC).
func tinyConfig() core.RunConfig { return core.QuickConfig("sor", 4, 1) }

// newFitter builds a fitter whose farm and catalog share one temp root,
// mirroring the service layout (<cache>/models beside the run cache).
func newFitter(t *testing.T) (*Fitter, *farm.Farm) {
	t.Helper()
	root := t.TempDir()
	cache, err := farm.OpenCache(filepath.Join(root, "cache"))
	if err != nil {
		t.Fatal(err)
	}
	f := farm.New(farm.Options{Workers: 2, Cache: cache})
	c, err := Open(filepath.Join(root, "cache", "models"))
	if err != nil {
		t.Fatal(err)
	}
	return NewFitter(f, c), f
}

func TestFitColdThenCatalogHit(t *testing.T) {
	ft, f := newFitter(t)
	cfg := tinyConfig()

	e, prov, err := ft.Fit(context.Background(), cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if prov.CatalogHit || prov.RunCached {
		t.Errorf("cold fit reported warm provenance: %+v", prov)
	}
	if e.Key != farm.Key(cfg) {
		t.Errorf("entry key %s != run key", e.Key)
	}
	if e.Program != "sor" || e.P != 4 || e.Spikes != DefaultSpikes {
		t.Errorf("entry identity wrong: %+v", e)
	}
	if len(e.Model.Components) == 0 {
		t.Error("fit retained no spectral components")
	}
	if e.MeasuredMeanKBps <= 0 {
		t.Errorf("measured mean %g not positive", e.MeasuredMeanKBps)
	}
	if !(e.MeanRelErr < 0.05) {
		t.Errorf("mean-bandwidth relative error %g exceeds 5%%", e.MeanRelErr)
	}
	if e.FundamentalHz <= 0 {
		t.Errorf("fundamental %g Hz not positive", e.FundamentalHz)
	}
	execBefore := f.Stats().Executed

	// Warm pass: catalog hit, no simulation, same entry.
	e2, prov2, err := ft.Fit(context.Background(), cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !prov2.CatalogHit {
		t.Errorf("warm fit missed the catalog: %+v", prov2)
	}
	if f.Stats().Executed != execBefore {
		t.Error("catalog hit still simulated")
	}
	if !entriesEqual(e, e2) {
		t.Error("catalog hit returned a different entry")
	}
	if ft.Fits() != 1 {
		t.Errorf("fit count = %d, want 1", ft.Fits())
	}
}

func TestFitSpikeBudgetMismatchRefits(t *testing.T) {
	ft, _ := newFitter(t)
	cfg := tinyConfig()
	if _, _, err := ft.Fit(context.Background(), cfg, Options{Spikes: 4}); err != nil {
		t.Fatal(err)
	}
	e, prov, err := ft.Fit(context.Background(), cfg, Options{Spikes: 8})
	if err != nil {
		t.Fatal(err)
	}
	if prov.CatalogHit {
		t.Error("different spike budget answered from the catalog")
	}
	if !prov.RunCached {
		t.Error("refit re-simulated instead of fitting from the run cache")
	}
	if e.Spikes != 8 {
		t.Errorf("entry spikes = %d, want 8", e.Spikes)
	}
	if ft.Fits() != 2 {
		t.Errorf("fit count = %d, want 2", ft.Fits())
	}
}

func TestFitFromWarmRunCache(t *testing.T) {
	root := t.TempDir()
	cache, err := farm.OpenCache(filepath.Join(root, "cache"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig()

	// First fitter simulates and populates the run cache.
	f1 := farm.New(farm.Options{Workers: 2, Cache: cache})
	c1, err := Open(filepath.Join(root, "models-a"))
	if err != nil {
		t.Fatal(err)
	}
	e1, _, err := NewFitter(f1, c1).Fit(context.Background(), cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Second fitter, empty catalog, same run cache: must fit without
	// simulating and produce a byte-identical .fxmodel.
	f2 := farm.New(farm.Options{Workers: 2, Cache: cache})
	c2, err := Open(filepath.Join(root, "models-b"))
	if err != nil {
		t.Fatal(err)
	}
	e2, prov, err := NewFitter(f2, c2).Fit(context.Background(), cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if prov.CatalogHit {
		t.Error("empty catalog reported a hit")
	}
	if !prov.RunCached {
		t.Error("warm run cache not used")
	}
	if f2.Stats().Executed != 0 {
		t.Error("warm run cache still simulated")
	}
	b1, err := os.ReadFile(filepath.Join(c1.Dir(), e1.Key+ext))
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(filepath.Join(c2.Dir(), e2.Key+ext))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Error("refitting the same run produced different .fxmodel bytes")
	}
}

func TestFitSingleFlight(t *testing.T) {
	ft, f := newFitter(t)
	cfg := tinyConfig()
	const callers = 8
	var wg sync.WaitGroup
	errs := make([]error, callers)
	entries := make([]*Entry, callers)
	for i := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			entries[i], _, errs[i] = ft.Fit(context.Background(), cfg, Options{})
		}()
	}
	wg.Wait()
	for i := range callers {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if !entriesEqual(entries[0], entries[i]) {
			t.Fatalf("caller %d got a different entry", i)
		}
	}
	if got := f.Stats().Executed; got != 1 {
		t.Errorf("executed %d simulations, want 1", got)
	}
	if got := ft.Fits(); got != 1 {
		t.Errorf("performed %d fits, want 1", got)
	}
}

func TestSweep(t *testing.T) {
	ft, f := newFitter(t)
	cfgs := []core.RunConfig{tinyConfig(), tinyConfig(), core.QuickConfig("sor", 2, 1)}

	res := ft.Sweep(context.Background(), cfgs, Options{})
	if len(res) != 3 {
		t.Fatalf("got %d results", len(res))
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("result %d: %v", i, r.Err)
		}
		if r.Entry == nil {
			t.Fatalf("result %d has no entry", i)
		}
	}
	// The duplicate pair shares one simulation.
	if got := f.Stats().Executed; got != 2 {
		t.Errorf("executed %d simulations, want 2", got)
	}
	if !entriesEqual(res[0].Entry, res[1].Entry) {
		t.Error("duplicate configs produced different entries")
	}
	if res[2].Entry.P != 2 {
		t.Errorf("third entry P = %d, want 2", res[2].Entry.P)
	}

	// Warm sweep: all catalog hits, nothing executed.
	execBefore := f.Stats().Executed
	for i, r := range ft.Sweep(context.Background(), cfgs, Options{}) {
		if r.Err != nil || !r.Prov.CatalogHit {
			t.Errorf("warm result %d: err=%v prov=%+v", i, r.Err, r.Prov)
		}
	}
	if f.Stats().Executed != execBefore {
		t.Error("warm sweep simulated")
	}

	// The catalog now characterizes sor at two processor counts; the
	// negotiation path must work end to end from fitted entries.
	prog, err := ft.cat.Program("sor")
	if err != nil {
		t.Fatal(err)
	}
	net := qos.NewNetwork(10e6)
	off, err := net.Negotiate(prog, 32)
	if err != nil {
		t.Fatal(err)
	}
	if off.P != 2 && off.P != 4 {
		t.Errorf("negotiated P=%d is not a measured point", off.P)
	}
}

// modelDigest is `sha256sum -- *.fxmodel | sort | sha256sum` over a
// catalog directory: one digest for every stored byte and file name.
func modelDigest(t *testing.T, dir string) string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*"+ext))
	if err != nil {
		t.Fatal(err)
	}
	lines := make([]string, len(names))
	for i, name := range names {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		lines[i] = fmt.Sprintf("%x  %s\n", sha256.Sum256(b), filepath.Base(name))
	}
	sort.Strings(lines)
	return fmt.Sprintf("%x", sha256.Sum256([]byte(strings.Join(lines, ""))))
}

// TestCatalogPromises holds the catalog to what it exists for, over the
// -quick programs at P=2,4 (seed 42, fxqos -catalog's defaults): every
// fitted mean within 5% of the measured one, admission from the catalog
// at least 100x faster than the simulate-then-fit path it replaces, and
// .fxmodel bytes that are a pure function of the runs — refitted from a
// warm run cache without simulating, and pinned by digest.
func TestCatalogPromises(t *testing.T) {
	const (
		wantDigest   = "24270de338cadd3cc65194f34823aa2aa6b1abc02202eb31a268197e7e036410"
		speedupFloor = 100
		admitReps    = 64
	)
	root := t.TempDir()
	cache, err := farm.OpenCache(filepath.Join(root, "cache"))
	if err != nil {
		t.Fatal(err)
	}
	open := func(name string) (*Fitter, *farm.Farm) {
		c, err := Open(filepath.Join(root, name))
		if err != nil {
			t.Fatal(err)
		}
		f := farm.New(farm.Options{Workers: 2, Cache: cache})
		return NewFitter(f, c), f
	}

	cold, _ := open("cold")
	var cfgs []core.RunConfig
	minSpeedup := 0.0
	for i, name := range core.ProgramNames() {
		var fitWall time.Duration
		for _, p := range []int{2, 4} {
			cfg := core.QuickConfig(name, p, 42)
			cfgs = append(cfgs, cfg)
			e, prov, err := cold.Fit(context.Background(), cfg, Options{})
			if err != nil {
				t.Fatalf("fit %s P=%d: %v", name, p, err)
			}
			if !(e.MeanRelErr <= 0.05) {
				t.Errorf("%s P=%d: model mean off the measured mean by %g, want <= 0.05", name, p, e.MeanRelErr)
			}
			fitWall += prov.Wall
		}
		// The minimum of the warm passes is the steady-state cost; host
		// noise can only lengthen the cold side.
		admit := time.Duration(1<<63 - 1)
		for range admitReps {
			t0 := time.Now()
			prog, err := cold.cat.Program(name)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := qos.NewNetwork(1.25e6).Negotiate(prog, 32); err != nil {
				t.Fatalf("negotiate %s: %v", name, err)
			}
			admit = min(admit, time.Since(t0))
		}
		if sp := float64(fitWall) / float64(admit); i == 0 || sp < minSpeedup {
			minSpeedup = sp
		}
	}
	t.Logf("catalog admission %.0fx faster than simulate-then-fit (slowest program)", minSpeedup)
	if minSpeedup < speedupFloor {
		t.Errorf("catalog admission only %.0fx faster than simulate-then-fit, want >= %dx", minSpeedup, speedupFloor)
	}
	if n := cold.cat.Len(); n != 12 {
		t.Errorf("catalog holds %d entries, want 12 (6 programs x P=2,4)", n)
	}

	warm, f := open("warm")
	for _, r := range warm.Sweep(context.Background(), cfgs, Options{}) {
		if r.Err != nil {
			t.Fatalf("refit %s P=%d: %v", r.Config.Program, r.Config.P, r.Err)
		}
	}
	if got := f.Stats().Executed; got != 0 {
		t.Errorf("refit over the warm run cache executed %d simulations, want 0", got)
	}
	if got := modelDigest(t, cold.cat.Dir()); got != wantDigest {
		t.Errorf(".fxmodel digest %s, want %s", got, wantDigest)
	}
	if got := modelDigest(t, warm.cat.Dir()); got != wantDigest {
		t.Errorf("refitted .fxmodel digest %s, want %s", got, wantDigest)
	}
}

func TestFitUnknownProgram(t *testing.T) {
	ft, _ := newFitter(t)
	if _, _, err := ft.Fit(context.Background(), core.RunConfig{Program: "nosuch"}, Options{}); err == nil {
		t.Fatal("fit of an unknown program succeeded")
	}
}
