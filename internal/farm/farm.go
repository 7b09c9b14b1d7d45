// Package farm is the experiment-execution engine that scales the
// reproduction's measurement pipeline: it takes batches of run
// configurations, hashes each into a content-addressed key, and executes
// them on a bounded worker pool with single-flight deduplication, an
// on-disk result cache, and per-job progress/ETA reporting.
//
// Every simulation is a single-threaded deterministic DES with no shared
// mutable package state (see DESIGN.md §7), so cross-experiment
// parallelism is a pure win: a batch run with any worker count produces
// results byte-identical to the serial run, job by job.
package farm

import (
	"container/list"
	"context"
	"errors"
	"runtime"
	"sync"
	"time"

	"fxnet/internal/core"
	"fxnet/internal/dsp"
	"fxnet/internal/durable"
)

// Options configures a Farm.
type Options struct {
	// Workers bounds how many simulations execute concurrently; <= 0
	// selects GOMAXPROCS.
	Workers int
	// Cache is the on-disk result cache; nil disables disk caching.
	Cache *Cache
	// Memoize keeps completed results in memory, so resubmitting a key
	// never re-simulates within this process even without a disk cache
	// (the benchmark harness's mode). Retention is bounded by
	// MemoMaxEntries/MemoMaxBytes; with both zero, results are retained
	// for the farm's lifetime (the pre-LRU behavior).
	Memoize bool
	// MemoMaxEntries and MemoMaxBytes bound the in-memory memo: when
	// either cap is exceeded the least-recently-used entries are
	// evicted (and count in Stats.MemoEvicted). Bytes are an estimate —
	// trace records plus characterization series — not a malloc audit;
	// the point is that a long-lived daemon's memo stops growing without
	// bound, not accounting to the byte. Zero = uncapped on that axis.
	MemoMaxEntries int
	MemoMaxBytes   int64
	// OnProgress, when non-nil, receives one event per completed job.
	// Events are delivered serially; the callback must not call back
	// into the farm.
	OnProgress func(Event)
}

// Job is one unit of work: a run configuration plus a presentation label.
type Job struct {
	// Label identifies the job in progress output ("2dfft", "P=8", …).
	Label string
	// Config is the experiment to run.
	Config core.RunConfig
	// Stream selects the analysis-only pipeline: the run folds packets
	// into the characterization as they are captured and never
	// materializes a trace, so the JobResult carries a metadata-only
	// Trace and a Report that is bit-identical, SD included, to the one
	// a trace job of the same configuration carries (one fold computes
	// both). Stream jobs deduplicate against each other but not
	// against trace jobs of the same configuration — the results differ
	// in what they retain — and cache as spectrum-level entries that skip
	// both the simulation and the FFT on a hit.
	Stream bool
}

// JobResult is a completed job.
type JobResult struct {
	Job Job
	// Key is the content-addressed identity of Job.Config.
	Key string
	// Result and Report are the run and its characterization. Results
	// served from the disk cache or shared with a deduplicated twin have
	// no live Workers/Team handles and must be treated as read-only.
	Result *core.Result
	Report *core.Report
	// Err is the submission failure, if any (unknown program, bad fault
	// script, …). A run that aborts cleanly under faults is a valid
	// measurement: it arrives with Err == nil and Result.RunErr set.
	Err error
	// Cached reports a disk-cache hit; Deduped reports that this job
	// shared an in-flight or memoized execution of the same key.
	Cached  bool
	Deduped bool
	// Wall is the real time from submission to completion.
	Wall time.Duration
}

// Event is a progress report: job number done of total submitted so far,
// plus a rough ETA from the mean wall time of executed (non-cached) runs
// and the current worker count.
type Event struct {
	Label   string
	Done    int64
	Total   int64
	Cached  bool
	Deduped bool
	Wall    time.Duration
	ETA     time.Duration
}

// Stats counts farm activity.
type Stats struct {
	// Submitted jobs; Completed of them have finished.
	Submitted int64
	Completed int64
	// Executed counts actual simulations; CacheHits disk-cache loads;
	// Deduped jobs that shared another execution; Failed submission
	// errors; Cancelled jobs abandoned through their context before a
	// simulation ran on their behalf.
	Executed  int64
	CacheHits int64
	Deduped   int64
	Failed    int64
	Cancelled int64
	// MemoEvicted counts memoized results dropped by the LRU caps.
	MemoEvicted int64
	// Running is the number of simulations holding a worker slot right
	// now (the service's "in-flight sims" gauge). Queued jobs are
	// Submitted − Completed − Running.
	Running int64
}

// call is a single-flight execution slot for one key.
type call struct {
	done chan struct{}
	res  *core.Result
	rep  *core.Report
	err  error
	// cached marks a leader that was served from disk.
	cached bool
}

// memoEntry is one LRU-tracked memoized result.
type memoEntry struct {
	slot string
	c    *call
	size int64
	elem *list.Element // element in Farm.memoList, value = *memoEntry
}

// Farm executes run configurations on a bounded worker pool.
type Farm struct {
	sem            chan struct{}
	cache          *Cache
	memoize        bool
	memoMaxEntries int
	memoMaxBytes   int64
	onProgress     func(Event)
	// runFn executes one configuration; tests stub it to model slow or
	// blocking simulations. Defaults to core.Run.
	runFn func(core.RunConfig) (*core.Result, error)
	// runStreamFn executes one configuration in streaming-analysis mode,
	// returning the report directly. Defaults to core.RunStream.
	runStreamFn func(core.RunConfig) (*core.Result, *core.Report, error)

	mu         sync.Mutex
	progressMu sync.Mutex
	calls      map[string]*call
	memo       map[string]*memoEntry
	memoList   *list.List // front = most recently used
	memoBytes  int64
	stats      Stats
	wallSum    time.Duration // total wall of executed runs, for ETA
	wallN      int64
}

// New creates a Farm.
func New(opts Options) *Farm {
	w := opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return &Farm{
		sem:            make(chan struct{}, w),
		cache:          opts.Cache,
		memoize:        opts.Memoize,
		memoMaxEntries: opts.MemoMaxEntries,
		memoMaxBytes:   opts.MemoMaxBytes,
		onProgress:     opts.OnProgress,
		runFn:          core.Run,
		runStreamFn:    core.RunStream,
		calls:          make(map[string]*call),
		memo:           make(map[string]*memoEntry),
		memoList:       list.New(),
	}
}

// Open is New with the disk cache opened (created if absent) in cacheDir
// over fs, nil being the real filesystem; an empty cacheDir is New(opts).
func Open(fs durable.FS, cacheDir string, opts Options) (*Farm, error) {
	if cacheDir != "" {
		c, err := OpenCacheFS(fs, cacheDir)
		if err != nil {
			return nil, err
		}
		opts.Cache = c
	}
	return New(opts), nil
}

// memoGet looks a slot up in the memo and marks it most recently used.
// Caller holds f.mu.
func (f *Farm) memoGet(slot string) (*call, bool) {
	e, ok := f.memo[slot]
	if !ok {
		return nil, false
	}
	f.memoList.MoveToFront(e.elem)
	return e.c, true
}

// memoPut inserts a completed call and evicts LRU entries past the
// caps. The slot is never already memoized: its leader has held the
// in-flight slot since the memo miss. Caller holds f.mu.
func (f *Farm) memoPut(slot string, c *call) {
	e := &memoEntry{slot: slot, c: c, size: memoSize(c)}
	e.elem = f.memoList.PushFront(e)
	f.memo[slot] = e
	f.memoBytes += e.size
	for f.memoList.Len() > 1 &&
		((f.memoMaxEntries > 0 && f.memoList.Len() > f.memoMaxEntries) ||
			(f.memoMaxBytes > 0 && f.memoBytes > f.memoMaxBytes)) {
		back := f.memoList.Back()
		ev := back.Value.(*memoEntry)
		f.memoList.Remove(back)
		delete(f.memo, ev.slot)
		f.memoBytes -= ev.size
		f.stats.MemoEvicted++
	}
}

// memoSize estimates a memoized result's memory footprint: trace
// records (the columnar capture dominates), characterization series,
// and spectra, plus a fixed overhead floor.
func memoSize(c *call) int64 {
	const perPacket = 48 // columnar record + index share, estimated
	size := int64(4096)
	if c.res != nil && c.res.Trace != nil {
		size += int64(c.res.Trace.Len()) * perPacket
	}
	if c.rep != nil {
		size += int64(len(c.rep.AggSeries)+len(c.rep.ConnSeries)) * 8
		for _, sp := range []*dsp.Spectrum{c.rep.AggSpectrum, c.rep.ConnSpectrum} {
			if sp != nil {
				size += int64(len(sp.Freq)+len(sp.Power)) * 8
				size += int64(len(sp.Coeff)) * 16
			}
		}
	}
	return size
}

// Workers reports the worker-pool bound.
func (f *Farm) Workers() int { return cap(f.sem) }

// Cache reports the disk cache, nil when disabled.
func (f *Farm) Cache() *Cache { return f.cache }

// Stats returns a snapshot of the farm's counters.
func (f *Farm) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// Run executes a single configuration (submitting it through the pool,
// cache, and dedup machinery) and blocks for the outcome.
func (f *Farm) Run(cfg core.RunConfig) (*core.Result, *core.Report, error) {
	jr := f.do(context.Background(), Job{Label: cfg.Program, Config: cfg})
	return jr.Result, jr.Report, jr.Err
}

// RunBatch executes jobs concurrently (bounded by the worker pool) and
// returns their results in submission order. Identical configurations
// within the batch are simulated once and share the result.
func (f *Farm) RunBatch(jobs []Job) []JobResult {
	return f.RunBatchCtx(context.Background(), jobs)
}

// RunBatchCtx is RunBatch under a shared context; cancelling it abandons
// every job of the batch that has not yet started executing.
func (f *Farm) RunBatchCtx(ctx context.Context, jobs []Job) []JobResult {
	out := make([]JobResult, len(jobs))
	var wg sync.WaitGroup
	for i, job := range jobs {
		wg.Add(1)
		go func(i int, job Job) {
			defer wg.Done()
			out[i] = f.do(ctx, job)
		}(i, job)
	}
	wg.Wait()
	return out
}

// isCtxErr reports whether an error is a context cancellation/deadline.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// do runs one job through dedup → cache → pool.
func (f *Farm) do(ctx context.Context, job Job) JobResult {
	start := time.Now()
	key := Key(job.Config)
	jr := JobResult{Job: job, Key: key}
	// Stream jobs single-flight in their own namespace: a stream result
	// (no packets) must never be handed to a trace job, and vice versa.
	slot := key
	if job.Stream {
		slot = "stream/" + key
	}

	f.mu.Lock()
	f.stats.Submitted++
	for {
		if c, ok := f.memoGet(slot); ok {
			f.stats.Deduped++
			f.mu.Unlock()
			jr.Result, jr.Report, jr.Err = c.res, c.rep, c.err
			jr.Deduped, jr.Cached = true, c.cached
			f.finish(&jr, start)
			return jr
		}
		if c, ok := f.calls[slot]; ok {
			f.mu.Unlock()
			select {
			case <-c.done:
			case <-ctx.Done():
				jr.Err = ctx.Err()
				f.mu.Lock()
				f.stats.Cancelled++
				f.mu.Unlock()
				f.finish(&jr, start)
				return jr
			}
			if isCtxErr(c.err) && ctx.Err() == nil {
				// The leader was abandoned, not us: retry as a fresh
				// leader rather than inheriting its cancellation.
				f.mu.Lock()
				continue
			}
			f.mu.Lock()
			f.stats.Deduped++
			f.mu.Unlock()
			jr.Result, jr.Report, jr.Err = c.res, c.rep, c.err
			jr.Deduped, jr.Cached = true, c.cached
			f.finish(&jr, start)
			return jr
		}
		break
	}
	c := &call{done: make(chan struct{})}
	f.calls[slot] = c
	f.mu.Unlock()

	f.lead(ctx, key, job, c)

	f.mu.Lock()
	delete(f.calls, slot)
	if f.memoize && c.err == nil {
		f.memoPut(slot, c)
	}
	switch {
	case c.err == nil:
	case isCtxErr(c.err):
		f.stats.Cancelled++
	default:
		f.stats.Failed++
	}
	f.mu.Unlock()
	close(c.done)

	jr.Result, jr.Report, jr.Err = c.res, c.rep, c.err
	jr.Cached = c.cached
	f.finish(&jr, start)
	return jr
}

// lead performs the actual work for a key: a disk probe, then (on a
// miss) a worker-pool slot and the simulation. A context cancelled
// before the slot is acquired frees the job without consuming a worker.
func (f *Farm) lead(ctx context.Context, key string, job Job, c *call) {
	cfg := job.Config
	if f.cache != nil {
		load := f.cache.Load
		if job.Stream {
			load = f.cache.LoadStream
		}
		if res, rep, ok := load(key, cfg); ok {
			c.res, c.rep, c.cached = res, rep, true
			f.mu.Lock()
			f.stats.CacheHits++
			f.mu.Unlock()
			return
		}
	}
	select {
	case f.sem <- struct{}{}:
	case <-ctx.Done():
		c.err = ctx.Err()
		return
	}
	if err := ctx.Err(); err != nil {
		// Cancelled in the same instant the slot freed: give it back.
		<-f.sem
		c.err = err
		return
	}
	f.mu.Lock()
	f.stats.Running++
	f.mu.Unlock()
	runStart := time.Now()
	var res *core.Result
	var rep *core.Report
	var err error
	if job.Stream {
		res, rep, err = f.runStreamFn(cfg)
	} else {
		res, err = f.runFn(cfg)
	}
	f.mu.Lock()
	f.stats.Running--
	f.mu.Unlock()
	<-f.sem
	if err != nil {
		c.err = err
		return
	}
	if rep == nil {
		rep = core.Characterize(res)
	}
	c.res, c.rep = res, rep
	f.mu.Lock()
	f.stats.Executed++
	f.wallSum += time.Since(runStart)
	f.wallN++
	f.mu.Unlock()
	if f.cache != nil {
		// A store failure (full disk, read-only dir) costs future time,
		// not this result's correctness: the result stands and the cache
		// counts the failure (Cache.StoreFailures).
		_ = f.cache.store(key, res, rep, job.Stream)
	}
}

// finish updates completion counters and emits the progress event.
func (f *Farm) finish(jr *JobResult, start time.Time) {
	jr.Wall = time.Since(start)
	f.mu.Lock()
	f.stats.Completed++
	ev := Event{
		Label:   jr.Job.Label,
		Done:    f.stats.Completed,
		Total:   f.stats.Submitted,
		Cached:  jr.Cached,
		Deduped: jr.Deduped,
		Wall:    jr.Wall,
	}
	if f.wallN > 0 {
		avg := f.wallSum / time.Duration(f.wallN)
		remaining := f.stats.Submitted - f.stats.Completed
		workers := int64(cap(f.sem))
		ev.ETA = avg * time.Duration((remaining+workers-1)/workers)
	}
	cb := f.onProgress
	f.mu.Unlock()
	if cb != nil {
		f.progressMu.Lock()
		cb(ev)
		f.progressMu.Unlock()
	}
}
