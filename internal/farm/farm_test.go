package farm

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"fxnet/internal/core"
	"fxnet/internal/kernels"
)

// runCtx and runStream submit one configuration the way the service
// and the catalog fitter do: a one-job batch, trace or stream.
func runCtx(ctx context.Context, f *Farm, cfg core.RunConfig) (*core.Result, *core.Report, error) {
	jr := f.RunBatchCtx(ctx, []Job{{Label: cfg.Program, Config: cfg}})[0]
	return jr.Result, jr.Report, jr.Err
}

func runStream(f *Farm, cfg core.RunConfig) (*core.Result, *core.Report, error) {
	jr := f.RunBatch([]Job{{Label: cfg.Program, Config: cfg, Stream: true}})[0]
	return jr.Result, jr.Report, jr.Err
}

// tinyJobs builds a batch of small distinct runs across programs and
// seeds.
func tinyJobs() []Job {
	var jobs []Job
	for _, prog := range []string{"sor", "2dfft", "seq"} {
		for _, seed := range []int64{1, 2} {
			jobs = append(jobs, Job{
				Label: prog,
				Config: core.RunConfig{
					Program: prog, Seed: seed,
					Params:            kernels.Params{N: 16, Iters: 2},
					KeepaliveInterval: -1,
				},
			})
		}
	}
	return jobs
}

// TestParallelMatchesSerial is the subsystem's determinism contract: a
// batch run with any worker count yields traces and characterizations
// byte-identical to the serial run.
func TestParallelMatchesSerial(t *testing.T) {
	serial := New(Options{Workers: 1}).RunBatch(tinyJobs())
	parallel := New(Options{Workers: 4}).RunBatch(tinyJobs())
	if len(serial) != len(parallel) {
		t.Fatalf("batch sizes differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		s, p := serial[i], parallel[i]
		if s.Err != nil || p.Err != nil {
			t.Fatalf("job %d failed: %v / %v", i, s.Err, p.Err)
		}
		if s.Key != p.Key {
			t.Fatalf("job %d keys differ", i)
		}
		if !bytes.Equal(traceBytes(t, s.Result), traceBytes(t, p.Result)) {
			t.Errorf("job %d (%s seed %d): parallel trace differs from serial",
				i, s.Job.Config.Program, s.Job.Config.Seed)
		}
		if s.Report.AggKBps != p.Report.AggKBps ||
			s.Report.AggSize != p.Report.AggSize ||
			s.Report.AggInterarrival != p.Report.AggInterarrival ||
			s.Report.Coincidence != p.Report.Coincidence ||
			s.Report.Correlation != p.Report.Correlation {
			t.Errorf("job %d: parallel characterization differs from serial", i)
		}
		if s.Result.Elapsed != p.Result.Elapsed {
			t.Errorf("job %d: virtual elapsed differs", i)
		}
	}
}

// TestSingleflightDedup submits many copies of one configuration
// concurrently: exactly one simulation runs, everyone shares its result.
func TestSingleflightDedup(t *testing.T) {
	f := New(Options{Workers: 4})
	jobs := make([]Job, 8)
	for i := range jobs {
		jobs[i] = Job{Label: "dup", Config: tinyConfig(5)}
	}
	// The leader holds its slot until every job of the batch has been
	// submitted: a follower submitted after the tiny leader finished
	// would rightly execute again (nothing memoizes here).
	f.runFn = func(cfg core.RunConfig) (*core.Result, error) {
		for f.Stats().Submitted < int64(len(jobs)) {
			runtime.Gosched()
		}
		return core.Run(cfg)
	}
	out := f.RunBatch(jobs)
	var deduped int
	for _, jr := range out {
		if jr.Err != nil {
			t.Fatal(jr.Err)
		}
		if jr.Result != out[0].Result {
			t.Error("deduplicated jobs do not share one result")
		}
		if jr.Deduped {
			deduped++
		}
	}
	s := f.Stats()
	if s.Executed != 1 {
		t.Errorf("executed %d simulations for 8 identical jobs", s.Executed)
	}
	if s.Deduped != 7 || deduped != 7 {
		t.Errorf("deduped = %d (stats %d), want 7", deduped, s.Deduped)
	}
	if s.Submitted != 8 || s.Completed != 8 {
		t.Errorf("submitted/completed = %d/%d, want 8/8", s.Submitted, s.Completed)
	}
}

// TestCacheHitMissAccounting checks the miss→store→hit lifecycle across
// farm instances sharing one cache directory.
func TestCacheHitMissAccounting(t *testing.T) {
	dir := t.TempDir()
	c1, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	jobs := []Job{
		{Label: "a", Config: tinyConfig(10)},
		{Label: "b", Config: tinyConfig(11)},
	}
	cold := New(Options{Workers: 2, Cache: c1})
	coldOut := cold.RunBatch(jobs)
	if s := cold.Stats(); s.Executed != 2 || s.CacheHits != 0 {
		t.Fatalf("cold stats %+v, want 2 executions, 0 hits", s)
	}

	c2, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	warm := New(Options{Workers: 2, Cache: c2})
	warmOut := warm.RunBatch(jobs)
	if s := warm.Stats(); s.Executed != 0 || s.CacheHits != 2 {
		t.Fatalf("warm stats %+v, want 0 executions, 2 hits", s)
	}
	for i := range jobs {
		if !warmOut[i].Cached {
			t.Errorf("warm job %d not marked cached", i)
		}
		if !bytes.Equal(traceBytes(t, warmOut[i].Result), traceBytes(t, coldOut[i].Result)) {
			t.Errorf("job %d: cached trace differs from computed", i)
		}
		if warmOut[i].Report.AggKBps != coldOut[i].Report.AggKBps {
			t.Errorf("job %d: cached report differs from computed", i)
		}
	}
}

// TestMemoize keeps results in memory: sequential resubmission of a key
// re-simulates nothing even without a disk cache.
func TestMemoize(t *testing.T) {
	f := New(Options{Workers: 2, Memoize: true})
	r1, _, err := f.Run(tinyConfig(20))
	if err != nil {
		t.Fatal(err)
	}
	r2, _, err := f.Run(tinyConfig(20))
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("memoized rerun returned a different result")
	}
	if s := f.Stats(); s.Executed != 1 || s.Deduped != 1 {
		t.Errorf("stats %+v, want 1 execution and 1 dedup", s)
	}
}

func TestBadJobSurfacesError(t *testing.T) {
	f := New(Options{Workers: 1})
	out := f.RunBatch([]Job{
		{Label: "bad", Config: core.RunConfig{Program: "no-such-kernel"}},
		// `fxfarm -loss 1.5,-0.1`: an error per row, not
		// a panic inside a farm worker.
		{Label: "loss=1.50", Config: core.RunConfig{Program: "sor", FrameLossProb: 1.5}},
		{Label: "loss=-0.10", Config: core.RunConfig{Program: "sor", FrameLossProb: -0.1}},
	})
	for _, jr := range out {
		if jr.Err == nil {
			t.Errorf("%s did not error", jr.Job.Label)
		}
	}
	if s := f.Stats(); s.Failed != int64(len(out)) {
		t.Errorf("failed counter %d, want %d", s.Failed, len(out))
	}
}

func TestProgressEvents(t *testing.T) {
	var events atomic.Int64
	var sawTotal atomic.Int64
	f := New(Options{Workers: 2, OnProgress: func(ev Event) {
		events.Add(1)
		if ev.Done == ev.Total {
			sawTotal.Add(1)
		}
	}})
	jobs := tinyJobs()[:4]
	f.RunBatch(jobs)
	if got := events.Load(); got != int64(len(jobs)) {
		t.Errorf("got %d progress events for %d jobs", got, len(jobs))
	}
	if sawTotal.Load() == 0 {
		t.Error("no event reported Done == Total")
	}
}

// errStub marks a run executed by the stubbed runFn in the cancellation
// tests; it only matters that it is not a context error.
var errStub = errors.New("stub run")

// stubRuns installs a runFn that counts executions and, for seed 1,
// blocks holding its worker slot until release is closed.
func stubRuns(f *Farm, runs *atomic.Int32, started, release chan struct{}) {
	f.runFn = func(cfg core.RunConfig) (*core.Result, error) {
		runs.Add(1)
		if cfg.Seed == 1 {
			close(started)
			<-release
		}
		return nil, errStub
	}
}

// TestCancelQueuedJobFreesSlot cancels a job while it waits for the
// single worker slot: it must return the context error without ever
// executing, and the slot must remain usable for later jobs.
func TestCancelQueuedJobFreesSlot(t *testing.T) {
	f := New(Options{Workers: 1})
	var runs atomic.Int32
	started := make(chan struct{})
	release := make(chan struct{})
	stubRuns(f, &runs, started, release)

	aDone := make(chan error, 1)
	go func() { _, _, err := f.Run(tinyConfig(1)); aDone <- err }()
	<-started // A holds the only slot

	ctx, cancel := context.WithCancel(context.Background())
	bDone := make(chan error, 1)
	go func() { _, _, err := runCtx(ctx, f, tinyConfig(2)); bDone <- err }()
	cancel()
	select {
	case err := <-bDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled job returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled job did not return while the pool was full")
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("cancelled job executed anyway: %d runs, want 1", got)
	}
	if s := f.Stats(); s.Cancelled != 1 {
		t.Errorf("Cancelled counter %d, want 1", s.Cancelled)
	}

	close(release)
	if err := <-aDone; !errors.Is(err, errStub) {
		t.Fatalf("blocking job returned %v, want errStub", err)
	}
	// The freed slot must still execute new work.
	if _, _, err := f.Run(tinyConfig(3)); !errors.Is(err, errStub) {
		t.Fatalf("post-cancel job returned %v, want errStub", err)
	}
	if got := runs.Load(); got != 2 {
		t.Fatalf("%d runs after post-cancel job, want 2", got)
	}
}

// TestCancelledLeaderDoesNotPoisonFollower: when a deduplicated twin's
// leader is abandoned through its own context, a follower with a live
// context retries as a fresh leader instead of inheriting the
// cancellation.
func TestCancelledLeaderDoesNotPoisonFollower(t *testing.T) {
	f := New(Options{Workers: 1})
	var runs atomic.Int32
	started := make(chan struct{})
	release := make(chan struct{})
	stubRuns(f, &runs, started, release)

	aDone := make(chan error, 1)
	go func() { _, _, err := f.Run(tinyConfig(1)); aDone <- err }()
	<-started // fill the pool so the leader stays queued

	ctx, cancel := context.WithCancel(context.Background())
	leadDone := make(chan error, 1)
	go func() { _, _, err := runCtx(ctx, f, tinyConfig(2)); leadDone <- err }()
	// Wait until the leader has registered its in-flight call, so the
	// follower actually dedups against it.
	deadline := time.After(5 * time.Second)
	for {
		f.mu.Lock()
		n := len(f.calls)
		f.mu.Unlock()
		if n == 1 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("leader never registered its call")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	followDone := make(chan error, 1)
	go func() { _, _, err := f.Run(tinyConfig(2)); followDone <- err }()

	cancel()
	if err := <-leadDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled leader returned %v, want context.Canceled", err)
	}
	close(release)
	<-aDone
	if err := <-followDone; !errors.Is(err, errStub) {
		t.Fatalf("follower returned %v, want errStub (a fresh execution)", err)
	}
	if got := runs.Load(); got != 2 {
		t.Fatalf("%d runs, want 2 (blocker + retried follower)", got)
	}
}
