// Package catalog is the content-addressed, crash-safe store of fitted
// spectral traffic models — the artifact that makes the paper's §7.2–7.3
// payoff operational. A program is simulated (or measured) once, its
// spiky bandwidth spectrum is truncated to a handful of Fourier
// components, and the resulting Entry — model, fit metadata, and
// predicted-vs-measured error bounds — is persisted under the run's
// canonical key. From then on QoS admission answers from a microsecond
// catalog lookup instead of minutes of simulation.
//
// Entries live as .fxmodel files under one directory (by convention
// <cache>/models next to the farm's run cache) in a durable.Store — the
// same crash-safe publish path and corrupt/ quarantine as the run cache
// (DESIGN.md §11). The binary codec is deterministic — no timestamps, no
// map iteration — so refitting the same RunConfig produces
// byte-identical files, which the bench harness verifies.
package catalog

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"fxnet/internal/core"
	"fxnet/internal/durable"
	"fxnet/internal/fx"
	"fxnet/internal/kernels"
	"fxnet/internal/model"
	"fxnet/internal/qos"
)

// Entry is one fitted spectral model plus everything needed to judge and
// use it without re-reading the run: identity (the canonical RunConfig
// key and the salient configuration fields, denormalized for listing),
// the truncated Fourier-series model, the fit parameters, and error
// bounds computed by regenerating the model's series over the measured
// window and comparing it against the run's Report.
type Entry struct {
	// Key is the content-addressed identity of the fitted run
	// (farm.Key of its RunConfig).
	Key string
	// Program, P, Seed, BitRateBps, Switched, and FaultScript denormalize
	// the salient RunConfig fields for listing and filtering. P is the
	// effective processor count (defaults resolved), BitRateBps 0 means
	// the default 10 Mb/s.
	Program     string
	P           int
	Seed        int64
	BitRateBps  float64
	Switched    bool
	FaultScript string

	// Spikes is the requested spike budget k; MinSepHz the minimum spike
	// separation used to collapse leakage lobes (0 selected 2·Δf).
	Spikes   int
	MinSepHz float64
	// Model is the fitted truncated Fourier-series bandwidth model (KB/s).
	Model model.BandwidthModel

	// SeriesDT and SeriesN describe the measured bandwidth series the
	// model was fitted to (bin width in seconds, sample count).
	SeriesDT float64
	SeriesN  int

	// Error bounds: the model's series regenerated at (SeriesN, SeriesDT)
	// against the measured series.
	//
	// MeanRelErr is |model mean − measured mean| / measured mean — the
	// mean-bandwidth relative error bound. RMSErrKBps is the per-window
	// RMS error in KB/s. NRMSE, Correlation, and EnergyFraction are the
	// fit metrics of model.Fit.
	MeasuredMeanKBps float64
	ModelMeanKBps    float64
	MeanRelErr       float64
	RMSErrKBps       float64
	NRMSE            float64
	Correlation      float64
	EnergyFraction   float64

	// FundamentalHz is the frequency of the strongest retained spike —
	// the program's burst rate, whose reciprocal is the natural burst
	// interval tbi. 0 when the fit retained no spike (DC-only traffic).
	FundamentalHz float64
	// PeakKBps is the maximum of the regenerated series — the model's
	// burst-level bandwidth, used to split tbi into local and burst time.
	PeakKBps float64
}

// ext is the catalog entry file extension.
const ext = ".fxmodel"

// Catalog is the on-disk store, fronted by an in-memory map so repeated
// lookups of the same key never touch the disk. Safe for concurrent use.
type Catalog struct {
	st *durable.Store

	mu  sync.RWMutex
	mem map[string]*Entry

	hits, misses atomic.Int64
}

// Open opens (creating if needed) a catalog directory on the real
// filesystem.
func Open(dir string) (*Catalog, error) { return OpenFS(nil, dir) }

// OpenFS is Open over a filesystem seam; nil is the real one.
func OpenFS(fs durable.FS, dir string) (*Catalog, error) {
	st, err := durable.Open(fs, dir, ext)
	if err != nil {
		return nil, fmt.Errorf("catalog: open: %w", err)
	}
	return &Catalog{st: st, mem: make(map[string]*Entry)}, nil
}

// Dir reports the catalog directory.
func (c *Catalog) Dir() string { return c.st.Dir() }

// Get looks a fitted model up by run key. Entries are immutable once
// stored; callers must not modify the returned Entry.
func (c *Catalog) Get(key string) (*Entry, bool) {
	c.mu.RLock()
	e, ok := c.mem[key]
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
		return e, true
	}
	body, err := c.st.Read(key, ext)
	if err != nil {
		c.misses.Add(1)
		return nil, false
	}
	e, err = Decode(body)
	if err != nil || e.Key != key {
		// Undecodable, or an entry filed under the wrong name: quarantine
		// the evidence and report a miss — a bad catalog costs a refit,
		// never a wrong admission.
		c.st.Quarantine(key, ext)
		c.misses.Add(1)
		return nil, false
	}
	c.mu.Lock()
	c.mem[key] = e
	c.mu.Unlock()
	c.hits.Add(1)
	return e, true
}

// Put publishes an entry durably and then to the in-memory map.
// Refitting a key overwrites its entry; the codec is deterministic, so
// an unchanged fit rewrites byte-identical content.
func (c *Catalog) Put(e *Entry) error {
	if _, err := c.st.Publish(e.Key, ext, durable.Bytes(Encode(e))); err != nil {
		return fmt.Errorf("catalog: store: %w", err)
	}
	c.mu.Lock()
	c.mem[e.Key] = e
	c.mu.Unlock()
	return nil
}

// List returns every decodable entry, sorted by (Program, P, Key) so
// listings and the programs assembled from them are deterministic.
// Corrupt entries are quarantined and skipped.
func (c *Catalog) List() ([]*Entry, error) {
	keys, err := c.st.Keys(ext)
	if err != nil {
		return nil, fmt.Errorf("catalog: list: %w", err)
	}
	var out []*Entry
	for _, key := range keys {
		if e, ok := c.Get(key); ok {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Program != out[j].Program {
			return out[i].Program < out[j].Program
		}
		if out[i].P != out[j].P {
			return out[i].P < out[j].P
		}
		return out[i].Key < out[j].Key
	})
	return out, nil
}

// Len and Bytes report the census of entries on disk (decodability not
// checked): counters kept by the store, not a directory scan.
func (c *Catalog) Len() int     { return int(c.st.Census(ext).Entries) }
func (c *Catalog) Bytes() int64 { return c.st.Census(ext).Bytes }

// Counters for the service's metrics surface.
func (c *Catalog) Hits() int64          { return c.hits.Load() }
func (c *Catalog) Misses() int64        { return c.misses.Load() }
func (c *Catalog) Quarantined() int64   { return c.st.Quarantined(ext) }
func (c *Catalog) StoreFailures() int64 { return c.st.Failures() }

// PatternOf maps a catalogued program to its global communication
// pattern: c of the kernel's registered [l(), b(), c] law for the five
// kernels, and all-to-all for AIRSHED, whose dominant communication is
// the transpose redistribution between the horizontal and vertical
// phases.
func PatternOf(program string) (fx.Pattern, bool) {
	if spec, ok := kernels.Lookup(program); ok {
		return spec.QoS(spec.Params).Pattern, true
	}
	if program == core.Airshed {
		return fx.AllToAll, true
	}
	return 0, false
}

// AdmissionPoint derives the §7.3 admission point (P, l, b) from a
// fitted entry. The model gives the three quantities the negotiation
// needs: the burst interval is the reciprocal of the fundamental spike
// frequency, the bytes moved per interval follow from the mean
// bandwidth, and the split of the interval into burst time and local
// computation follows from the peak-to-mean ratio of the regenerated
// series (during a burst the program drives the wire at the model's
// peak; the rest of the interval is local computation).
func (e *Entry) AdmissionPoint() (qos.Point, error) {
	pat, ok := PatternOf(e.Program)
	if !ok {
		return qos.Point{}, fmt.Errorf("catalog: no communication pattern for %q", e.Program)
	}
	if e.FundamentalHz <= 0 {
		return qos.Point{}, fmt.Errorf("catalog: %s entry %s has no spectral spike (DC-only fit)", e.Program, e.Key)
	}
	meanBps := e.MeasuredMeanKBps * 1000
	if meanBps <= 0 {
		return qos.Point{}, fmt.Errorf("catalog: %s entry %s measured zero traffic", e.Program, e.Key)
	}
	senders := qos.ConcurrentSenders(pat, e.P)
	if senders == 0 {
		return qos.Point{}, fmt.Errorf("catalog: pattern %v idle on P=%d", pat, e.P)
	}
	tbi := 1 / e.FundamentalHz
	totalBurstBytes := meanBps * tbi // bytes all senders move per interval
	burstBytes := totalBurstBytes / float64(senders)
	// Burst time at measured conditions: the interval's bytes at the
	// model's peak rate. Peak ≤ mean degenerates to an always-on program
	// with no local phase.
	burstSeconds := tbi
	if peakBps := e.PeakKBps * 1000; peakBps > meanBps {
		burstSeconds = totalBurstBytes / peakBps
	}
	return qos.Point{
		P:            e.P,
		LocalSeconds: tbi - burstSeconds,
		BurstBytes:   burstBytes,
	}, nil
}

// Program assembles a tabulated [l(), b(), c] characterization for name
// from the catalog's fitted entries: each measured P contributes one
// admission point (when several entries share a P, the one with the
// smallest mean-bandwidth error bound wins), and the program answers
// only at measured processor counts — Negotiate then picks the best
// measured P, never extrapolates.
func (c *Catalog) Program(name string) (qos.Program, error) {
	entries, err := c.List()
	if err != nil {
		return qos.Program{}, err
	}
	pat, ok := PatternOf(name)
	if !ok {
		return qos.Program{}, fmt.Errorf("catalog: no communication pattern for %q", name)
	}
	best := map[int]*Entry{}
	for _, e := range entries {
		if e.Program != name {
			continue
		}
		cur, ok := best[e.P]
		if !ok || e.MeanRelErr < cur.MeanRelErr ||
			(e.MeanRelErr == cur.MeanRelErr && e.Key < cur.Key) {
			best[e.P] = e
		}
	}
	var pts []qos.Point
	var lastErr error
	ps := make([]int, 0, len(best))
	for p := range best {
		ps = append(ps, p)
	}
	sort.Ints(ps)
	for _, p := range ps {
		pt, err := best[p].AdmissionPoint()
		if err != nil {
			lastErr = err
			continue
		}
		pts = append(pts, pt)
	}
	if len(pts) == 0 {
		if lastErr != nil {
			return qos.Program{}, fmt.Errorf("catalog: no usable entry for %q: %w", name, lastErr)
		}
		return qos.Program{}, fmt.Errorf("catalog: no fitted model for %q", name)
	}
	return qos.TabulatedProgram(name, pat, pts), nil
}

// mean is the arithmetic mean of a non-empty series.
func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// relErr is |a−b|/|b|, with the 0/0 case defined as 0 and x/0 as +Inf.
func relErr(a, b float64) float64 {
	if b == 0 {
		if a == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(a-b) / math.Abs(b)
}
