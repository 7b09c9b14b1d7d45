package catalog

// Fitter: the simulate-and-fit pipeline behind the catalog. A fit
// request resolves in one of three tiers, cheapest first:
//
//  1. catalog hit — the key already has an entry with the requested
//     spike budget; answer in microseconds.
//  2. run-cache hit — the farm's disk cache has the run's spectrum-level
//     entry; fit from the cached Report without re-simulating.
//  3. simulate — execute the run through the farm's streaming-analysis
//     pipeline, then fit.
//
// Concurrent fits of the same key single-flight at this layer (the farm
// additionally single-flights the simulation beneath), and Sweep pushes
// whole (program × P × bit-rate × faults) grids through farm.RunBatchCtx
// so the worker pool, dedup, and cache do their work batch-wide.

import (
	"context"
	"errors"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fxnet/internal/core"
	"fxnet/internal/farm"
	"fxnet/internal/model"
)

// DefaultSpikes is the spike budget used when Options.Spikes is 0 —
// enough for every measured program's spectrum to retain its dominant
// structure (the paper's models use a handful of spikes).
const DefaultSpikes = 8

// Options configure one fit.
type Options struct {
	// Spikes is the spike budget k; <= 0 selects DefaultSpikes.
	Spikes int
}

func (o Options) withDefaults() Options {
	if o.Spikes <= 0 {
		o.Spikes = DefaultSpikes
	}
	return o
}

// Provenance reports how a fit was answered.
type Provenance struct {
	// CatalogHit: the entry was already in the catalog; nothing ran.
	CatalogHit bool
	// RunCached / RunDeduped: the simulation was answered by the farm's
	// disk cache / shared with a concurrent twin.
	RunCached  bool
	RunDeduped bool
	// Wall is the real time the fit took end to end.
	Wall time.Duration
}

// Fitter fits spectral models through an experiment farm into a catalog.
// Safe for concurrent use.
type Fitter struct {
	farm *farm.Farm
	cat  *Catalog

	mu       sync.Mutex
	inflight map[string]*fitCall

	fits atomic.Int64
}

// fitCall is a single-flight slot for one (key, spikes) fit.
type fitCall struct {
	done chan struct{}
	e    *Entry
	prov Provenance
	err  error
}

// NewFitter creates a fitter over the given farm and catalog.
func NewFitter(f *farm.Farm, c *Catalog) *Fitter {
	return &Fitter{farm: f, cat: c, inflight: make(map[string]*fitCall)}
}

// Fits counts fits performed (catalog hits excluded).
func (ft *Fitter) Fits() int64 { return ft.fits.Load() }

// Fit returns the fitted model for cfg, simulating and fitting only on a
// catalog miss. An existing entry hits only if its spike budget matches
// the request; a different budget refits and overwrites (latest fit
// wins — the catalog stores one model per run).
func (ft *Fitter) Fit(ctx context.Context, cfg core.RunConfig, opts Options) (*Entry, Provenance, error) {
	start := time.Now()
	opts = opts.withDefaults()
	key := farm.Key(cfg)
	if e, ok := ft.cat.Get(key); ok && e.Spikes == opts.Spikes {
		return e, Provenance{CatalogHit: true, Wall: time.Since(start)}, nil
	}

	slot := key + "/" + strconv.Itoa(opts.Spikes)
	ft.mu.Lock()
	if c, ok := ft.inflight[slot]; ok {
		ft.mu.Unlock()
		select {
		case <-c.done:
			prov := c.prov
			prov.Wall = time.Since(start)
			return c.e, prov, c.err
		case <-ctx.Done():
			return nil, Provenance{Wall: time.Since(start)}, ctx.Err()
		}
	}
	c := &fitCall{done: make(chan struct{})}
	ft.inflight[slot] = c
	ft.mu.Unlock()

	c.e, c.prov, c.err = ft.lead(ctx, key, cfg, opts)
	ft.mu.Lock()
	delete(ft.inflight, slot)
	ft.mu.Unlock()
	close(c.done)
	prov := c.prov
	prov.Wall = time.Since(start)
	return c.e, prov, c.err
}

// lead performs the miss path: run (stream pipeline, so a warm run
// cache answers without simulating), fit, store.
func (ft *Fitter) lead(ctx context.Context, key string, cfg core.RunConfig, opts Options) (*Entry, Provenance, error) {
	out := ft.farm.RunBatchCtx(ctx, []farm.Job{{Label: cfg.Program, Config: cfg, Stream: true}})
	jr := out[0]
	prov := Provenance{RunCached: jr.Cached, RunDeduped: jr.Deduped}
	if jr.Err != nil {
		return nil, prov, jr.Err
	}
	e, err := ft.fitReport(key, cfg, jr.Report, opts)
	if err != nil {
		return nil, prov, err
	}
	return e, prov, nil
}

// Result is one Sweep outcome.
type Result struct {
	Config core.RunConfig
	Entry  *Entry
	Prov   Provenance
	Err    error
}

// Sweep fits every configuration, pushing the misses through
// farm.RunBatchCtx in one batch so the pool executes them concurrently
// and identical configurations simulate once. Results are in submission
// order. A warm run cache makes a sweep pure fitting; a warm catalog
// makes it pure lookup.
func (ft *Fitter) Sweep(ctx context.Context, cfgs []core.RunConfig, opts Options) []Result {
	start := time.Now()
	opts = opts.withDefaults()
	out := make([]Result, len(cfgs))
	var jobs []farm.Job
	var idx []int
	for i, cfg := range cfgs {
		out[i].Config = cfg
		key := farm.Key(cfg)
		if e, ok := ft.cat.Get(key); ok && e.Spikes == opts.Spikes {
			out[i].Entry = e
			out[i].Prov = Provenance{CatalogHit: true, Wall: time.Since(start)}
			continue
		}
		jobs = append(jobs, farm.Job{Label: cfg.Program, Config: cfg, Stream: true})
		idx = append(idx, i)
	}
	for j, jr := range ft.farm.RunBatchCtx(ctx, jobs) {
		i := idx[j]
		out[i].Prov = Provenance{RunCached: jr.Cached, RunDeduped: jr.Deduped}
		if jr.Err != nil {
			out[i].Err = jr.Err
		} else {
			out[i].Entry, out[i].Err = ft.fitReport(jr.Key, jr.Job.Config, jr.Report, opts)
		}
		out[i].Prov.Wall = time.Since(start)
	}
	return out
}

// fitReport fits a model to a run's Report, stamps the entry with the
// run's identity, and stores it.
func (ft *Fitter) fitReport(key string, cfg core.RunConfig, rep *core.Report, opts Options) (*Entry, error) {
	e, err := FitReport(rep, opts.Spikes)
	if err == nil {
		e.Key, e.Program, e.P, e.Seed = key, cfg.Program, cfg.EffectiveP(), cfg.Seed
		e.BitRateBps, e.Switched, e.FaultScript = cfg.BitRate, cfg.Switched, cfg.FaultScript
		ft.fits.Add(1)
		// The fit itself is good regardless of the store: a failure (full
		// disk, read-only dir) costs the next caller a refit, not this
		// caller the answer, and the catalog's store-failure counter
		// surfaces it.
		_ = ft.cat.Put(e)
	}
	return e, err
}

// FitReport fits a k-spike model to a run's Report and computes the error
// bounds by regenerating the model's series over the measured window. The
// entry's identity fields (Key, Program, P, ...) are left to the caller.
// The entry is a pure function of (Report, spikes), and the Report is a
// pure function of the RunConfig (the determinism contract), so repeated
// fits of one configuration give byte-identical entries — whether the
// Report was folded live or replayed from a trace file.
func FitReport(rep *core.Report, spikes int) (*Entry, error) {
	if rep == nil || len(rep.AggSeries) == 0 || rep.SeriesDT <= 0 {
		return nil, errors.New("catalog: run produced no bandwidth series to fit")
	}
	// The minimum spike separation, collapsing adjacent leakage lobes, is
	// twice the spectrum's bin width 2·Δf.
	minSep := 0.0
	if rep.AggSpectrum != nil {
		minSep = 2 * rep.AggSpectrum.DF
	}
	m, met := model.Fit(rep.AggSeries, rep.SeriesDT, spikes, minSep)
	recon := m.Series(len(rep.AggSeries), rep.SeriesDT)

	measMean := mean(rep.AggSeries)
	// Recenter the DC term on the measured window. The fit's FFT zero-pads
	// the series to a power of two, so over the unpadded window the
	// retained spikes do not average to zero and the model's mean drifts
	// off the measurement. Series is linear in DC, so shifting it moves
	// every regenerated sample by exactly the drift — the residual mean
	// goes to zero and the RMS error can only shrink.
	if delta := measMean - mean(recon); delta != 0 {
		m.DC += delta
		for i := range recon {
			recon[i] += delta
		}
	}
	modelMean := mean(recon)
	var sq, peak float64
	for i, r := range recon {
		d := r - rep.AggSeries[i]
		sq += d * d
		if r > peak {
			peak = r
		}
	}
	rms := math.Sqrt(sq / float64(len(recon)))
	f0 := 0.0
	if len(m.Components) > 0 {
		// Components are sorted strongest first; the strongest spike is
		// the program's burst frequency.
		f0 = m.Components[0].Freq
	}
	return &Entry{
		Spikes:           spikes,
		MinSepHz:         minSep,
		Model:            *m,
		SeriesDT:         rep.SeriesDT,
		SeriesN:          len(rep.AggSeries),
		MeasuredMeanKBps: measMean,
		ModelMeanKBps:    modelMean,
		MeanRelErr:       relErr(modelMean, measMean),
		RMSErrKBps:       rms,
		NRMSE:            met.NRMSE,
		Correlation:      met.Correlation,
		EnergyFraction:   met.EnergyFraction,
		FundamentalHz:    f0,
		PeakKBps:         peak,
	}, nil
}
