package server

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fxnet/internal/catalog"
	"fxnet/internal/core"
	"fxnet/internal/farm"
)

// Job states, as reported by GET /v1/runs/{id}. A job is "queued" from
// submission until the farm hands back its result: the farm does not
// distinguish waiting-for-a-slot from simulating, and the distinction is
// visible in /metrics (fxnetd_sims_in_flight) rather than per job.
const (
	stateQueued    = "queued"
	stateDone      = "done"
	stateFailed    = "failed"
	stateCancelled = "cancelled"
)

// job is one asynchronous run submission.
type job struct {
	ID     string
	Key    string
	Cfg    core.RunConfig
	Stream bool
	// FitSpikes > 0 marks a model-fit job: the run resolves through the
	// catalog fitter (catalog hit → run cache → simulate) with this spike
	// budget, and the result is a catalog entry rather than a trace.
	FitSpikes int
	Submitted time.Time

	cancel context.CancelFunc
	done   chan struct{}

	mu      sync.Mutex
	state   string
	res     *core.Result
	rep     *core.Report
	entry   *catalog.Entry
	err     error
	cached  bool
	deduped bool
	wall    time.Duration
}

// analysis names the job's pipeline for wire payloads.
func (j *job) analysis() string {
	if j.FitSpikes > 0 {
		return "fit"
	}
	if j.Stream {
		return "stream"
	}
	return "trace"
}

// model returns the fitted catalog entry of a completed fit job.
func (j *job) model() *catalog.Entry {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.entry
}

// snapshot returns the job's fields under its lock.
func (j *job) snapshot() (state string, res *core.Result, rep *core.Report, err error, cached, deduped bool, wall time.Duration) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.res, j.rep, j.err, j.cached, j.deduped, j.wall
}

// jobRegistry owns the job table and the background execution goroutines.
type jobRegistry struct {
	farm *farm.Farm
	// fitter resolves fit jobs; nil when the model catalog is disabled
	// (fit jobs then fail rather than silently running as plain runs).
	fitter *catalog.Fitter
	// onTerminal, when non-nil, observes every job reaching a terminal
	// state — the server's journal write-through. It runs on the job's
	// execution goroutine before done is closed, so a crash after the
	// callback returns is recoverable from the journal alone.
	onTerminal func(j *job, state, errMsg string)

	mu   sync.Mutex
	jobs map[string]*job
	seq  uint64
	wg   sync.WaitGroup

	// live counts jobs from start until they are terminal. The farm
	// counts a job only once its goroutine reaches it, after the 202, so
	// the shed depth reads this instead (queueDepth).
	live atomic.Int64

	// engine accumulates the conservative-PDES window statistics of every
	// executed multi-segment run (cache-served results carry zeros), for
	// the fxnetd_engine_* metrics.
	engine engineCounters
}

// engineCounters aggregates sim.EngineStats across runs. Atomics: the
// adds happen on job execution goroutines, reads on the metrics handler.
type engineCounters struct {
	windows    atomic.Uint64
	activeSum  atomic.Uint64
	nulls      atomic.Uint64
	crossMsgs  atomic.Uint64
	partedRuns atomic.Uint64 // runs that actually exercised the engine
}

func (c *engineCounters) add(r *core.Result) {
	if r == nil || r.Engine.Windows == 0 {
		return
	}
	c.windows.Add(r.Engine.Windows)
	c.activeSum.Add(r.Engine.ActiveSum)
	c.nulls.Add(r.Engine.NullPublishes)
	c.crossMsgs.Add(r.Engine.CrossMessages)
	c.partedRuns.Add(1)
}

func newJobRegistry(f *farm.Farm) *jobRegistry {
	return &jobRegistry{farm: f, jobs: make(map[string]*job)}
}

// allocID reserves the next job ID. IDs are allocated before the
// journal's submitted record is written, so the record and the job
// agree on identity.
func (r *jobRegistry) allocID() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	return fmt.Sprintf("r-%08d", r.seq)
}

// restoreSeq advances the ID sequence past a replayed job's ID so new
// submissions never collide with recovered ones. The sequence number is
// the segment after the last dash, so journals written by nodes that
// minted shard-prefixed IDs (r-s1-00000001) replay too.
func (r *jobRegistry) restoreSeq(id string) {
	tail := id
	if i := strings.LastIndex(id, "-"); i >= 0 {
		tail = id[i+1:]
	}
	n, err := strconv.ParseUint(tail, 10, 64)
	if err != nil {
		return
	}
	r.mu.Lock()
	if n > r.seq {
		r.seq = n
	}
	r.mu.Unlock()
}

// start registers a job under a preassigned ID and launches its
// execution goroutine. The job's context is cancelled by
// DELETE /v1/runs/{id}; until the farm grants a worker slot,
// cancellation frees the job without simulating. fitSpikes > 0 selects
// the fit pipeline: the job resolves through the catalog fitter and
// lands a fitted model instead of run results.
func (r *jobRegistry) start(id string, cfg core.RunConfig, stream bool, fitSpikes int) *job {
	ctx, cancel := context.WithCancel(context.Background())
	j := &job{
		ID:        id,
		Key:       farm.Key(cfg),
		Cfg:       cfg,
		Stream:    stream,
		FitSpikes: fitSpikes,
		Submitted: time.Now(),
		cancel:    cancel,
		done:      make(chan struct{}),
		state:     stateQueued,
	}
	r.mu.Lock()
	r.jobs[j.ID] = j
	r.wg.Add(1)
	r.mu.Unlock()
	r.live.Add(1)

	go func() {
		defer r.wg.Done()
		defer r.live.Add(-1)
		defer cancel()
		if fitSpikes > 0 {
			r.runFit(ctx, j, cfg, fitSpikes)
		} else {
			out := r.farm.RunBatchCtx(ctx, []farm.Job{{Label: j.ID, Config: cfg, Stream: stream}})
			jr := out[0]
			j.mu.Lock()
			j.res, j.rep, j.err = jr.Result, jr.Report, jr.Err
			j.cached, j.deduped, j.wall = jr.Cached, jr.Deduped, jr.Wall
			j.mu.Unlock()
			r.engine.add(jr.Result)
		}
		j.mu.Lock()
		switch {
		case j.err == nil:
			j.state = stateDone
		case ctx.Err() != nil:
			j.state = stateCancelled
		default:
			j.state = stateFailed
		}
		state := j.state
		errMsg := ""
		if j.err != nil {
			errMsg = j.err.Error()
		}
		j.mu.Unlock()
		if r.onTerminal != nil {
			r.onTerminal(j, state, errMsg)
		}
		close(j.done)
	}()
	return j
}

// runFit resolves a fit job through the catalog fitter: a catalog hit
// answers in microseconds, a warm run cache fits without simulating,
// and only a cold miss simulates (through the same farm the run queue
// uses, so worker bounds and dedup hold across job kinds).
func (r *jobRegistry) runFit(ctx context.Context, j *job, cfg core.RunConfig, spikes int) {
	if r.fitter == nil {
		j.mu.Lock()
		j.err = errCatalogDisabled
		j.mu.Unlock()
		return
	}
	e, prov, err := r.fitter.Fit(ctx, cfg, catalog.Options{Spikes: spikes})
	j.mu.Lock()
	j.entry, j.err = e, err
	j.cached = prov.CatalogHit || prov.RunCached
	j.deduped = prov.RunDeduped
	j.wall = prov.Wall
	j.mu.Unlock()
}

// restoreTerminal registers a tombstone for a job the journal says
// already finished in a state (cancelled/failed) that re-running cannot
// reproduce. The job is immediately terminal and never touches the
// farm; onTerminal is not invoked, so recovery does not re-journal it.
func (r *jobRegistry) restoreTerminal(id string, cfg core.RunConfig, stream bool, fitSpikes int, state, errMsg string) *job {
	j := &job{
		ID:        id,
		Key:       farm.Key(cfg),
		Cfg:       cfg,
		Stream:    stream,
		FitSpikes: fitSpikes,
		Submitted: time.Now(),
		cancel:    func() {},
		done:      make(chan struct{}),
		state:     state,
	}
	if errMsg != "" {
		j.err = fmt.Errorf("%s", errMsg)
	}
	close(j.done)
	r.mu.Lock()
	r.jobs[j.ID] = j
	r.mu.Unlock()
	return j
}

// get looks a job up by ID.
func (r *jobRegistry) get(id string) (*job, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j, ok := r.jobs[id]
	return j, ok
}

// counts tallies jobs by state for /metrics and /healthz.
func (r *jobRegistry) counts() map[string]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := map[string]int{stateQueued: 0, stateDone: 0, stateFailed: 0, stateCancelled: 0}
	for _, j := range r.jobs {
		j.mu.Lock()
		out[j.state]++
		j.mu.Unlock()
	}
	return out
}

// drain blocks until every submitted job has finished or ctx expires.
func (r *jobRegistry) drain(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		r.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
