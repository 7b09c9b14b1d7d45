package farm

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"

	"fxnet/internal/analysis"
	"fxnet/internal/core"
	"fxnet/internal/trace"
)

// streamBitsMatch compares the fields of a stream report that must be
// bit-identical to the trace-derived one (the full contract is tested in
// internal/core; here we spot-check through the farm plumbing).
func streamBitsMatch(t *testing.T, got, want *core.Report) {
	t.Helper()
	if len(got.AggSeries) != len(want.AggSeries) {
		t.Fatalf("AggSeries length %d want %d", len(got.AggSeries), len(want.AggSeries))
	}
	for i := range want.AggSeries {
		if math.Float64bits(got.AggSeries[i]) != math.Float64bits(want.AggSeries[i]) {
			t.Fatalf("AggSeries[%d] = %v want %v", i, got.AggSeries[i], want.AggSeries[i])
		}
	}
	if math.Float64bits(got.AggKBps) != math.Float64bits(want.AggKBps) {
		t.Errorf("AggKBps = %v want %v", got.AggKBps, want.AggKBps)
	}
	if got.AggSize.N != want.AggSize.N {
		t.Errorf("AggSize.N = %d want %d", got.AggSize.N, want.AggSize.N)
	}
}

// TestStreamJobMatchesTraceJob: a stream job's report agrees with the
// trace job's, its result carries no packets, and the two do not
// deduplicate against each other.
func TestStreamJobMatchesTraceJob(t *testing.T) {
	f := New(Options{Workers: 2})
	cfg := tinyConfig(7)
	_, traceRep, err := f.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, rep, err := runStream(f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Trace.Len(); n != 0 {
		t.Errorf("stream result retained %d packets", n)
	}
	streamBitsMatch(t, rep, traceRep)
	if s := f.Stats(); s.Executed != 2 || s.Deduped != 0 {
		t.Errorf("stats %+v: stream and trace jobs must not share an execution", s)
	}
}

// TestStreamDedupNamespace: identical stream jobs single-flight with
// each other, in a namespace separate from trace jobs of the same key.
func TestStreamDedupNamespace(t *testing.T) {
	f := New(Options{Workers: 4})
	jobs := make([]Job, 8)
	// A leader holds its slot until every job of the batch has been
	// submitted: a job submitted after its leader finished would rightly
	// execute again (nothing memoizes here), and the tiny run is quick
	// enough for that to happen.
	allSubmitted := func() {
		for f.Stats().Submitted < int64(len(jobs)) {
			runtime.Gosched()
		}
	}
	var streams, traces atomic.Int32
	f.runStreamFn = func(cfg core.RunConfig) (*core.Result, *core.Report, error) {
		streams.Add(1)
		allSubmitted()
		return core.RunStream(cfg)
	}
	f.runFn = func(cfg core.RunConfig) (*core.Result, error) {
		traces.Add(1)
		allSubmitted()
		return core.Run(cfg)
	}
	for i := range jobs {
		jobs[i] = Job{Label: "dup", Config: tinyConfig(9), Stream: i%2 == 0}
	}
	out := f.RunBatch(jobs)
	for i, jr := range out {
		if jr.Err != nil {
			t.Fatalf("job %d: %v", i, jr.Err)
		}
		if wantStream := i%2 == 0; (jr.Result.Trace.Len() == 0) != wantStream {
			t.Errorf("job %d: stream=%v but trace has %d packets", i, wantStream, jr.Result.Trace.Len())
		}
	}
	if got := streams.Load(); got != 1 {
		t.Errorf("%d stream executions, want 1 (single-flight)", got)
	}
	if got := traces.Load(); got != 1 {
		t.Errorf("%d trace executions, want 1 (single-flight)", got)
	}
}

// TestStreamCacheRoundTrip: a stream job stores a .fxspec entry that a
// fresh farm loads without re-simulating, and the revived report carries
// the original bits.
func TestStreamCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig(11)
	f1 := New(Options{Workers: 1, Cache: c})
	_, rep1, err := runStream(f1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	key := Key(cfg)
	if _, err := os.Stat(filepath.Join(c.st.Dir(), key+specExt)); err != nil {
		t.Fatalf("no .fxspec entry after stream run: %v", err)
	}
	if _, err := os.Stat(filepath.Join(c.st.Dir(), key+runExt)); !os.IsNotExist(err) {
		t.Fatalf("stream run wrote a full .fxrun entry (err=%v)", err)
	}

	f2 := New(Options{Workers: 1, Cache: c})
	res2, rep2, err := runStream(f2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s := f2.Stats(); s.CacheHits != 1 || s.Executed != 0 {
		t.Errorf("stats %+v: want pure cache hit", s)
	}
	if n := res2.Trace.Len(); n != 0 {
		t.Errorf("cached stream result has %d packets", n)
	}
	streamBitsMatch(t, rep2, rep1)
	if res2.Trace.Meta["program"] == "" {
		t.Error("cached stream result lost trace metadata")
	}

	// A corrupted .fxspec entry is a miss and forces a re-run.
	body, err := os.ReadFile(filepath.Join(c.st.Dir(), key+specExt))
	if err != nil {
		t.Fatal(err)
	}
	body[len(body)/2] ^= 0x40
	if err := os.WriteFile(filepath.Join(c.st.Dir(), key+specExt), body, 0o644); err != nil {
		t.Fatal(err)
	}
	f3 := New(Options{Workers: 1, Cache: c})
	_, rep3, err := runStream(f3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s := f3.Stats(); s.Executed != 1 {
		t.Errorf("stats %+v after corruption: want recompute", s)
	}
	streamBitsMatch(t, rep3, rep1)
}

// TestStreamFallsBackToFullEntry: with only a .fxrun entry on disk, a
// stream job is served from it — packets dropped — without simulating.
func TestStreamFallsBackToFullEntry(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig(13)
	f1 := New(Options{Workers: 1, Cache: c})
	_, traceRep, err := f1.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	f2 := New(Options{Workers: 1, Cache: c})
	res, rep, err := runStream(f2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s := f2.Stats(); s.CacheHits != 1 || s.Executed != 0 {
		t.Errorf("stats %+v: want fallback cache hit", s)
	}
	if n := res.Trace.Len(); n != 0 {
		t.Errorf("fallback stream result has %d packets", n)
	}
	streamBitsMatch(t, rep, traceRep)
}

// TestStreamReportIndependentOfCacheState: a stream job's Report is the
// same bytes whether the farm executed it cold or answered it from the
// full-run entry a trace job of the same configuration left on disk —
// SD fields included. One fold computes the report a stream run carries
// and the one a trace run's entry stores, so "byte-identical for any
// cache state" holds across the two job kinds as well as within each.
func TestStreamReportIndependentOfCacheState(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four -quick programs twice")
	}
	for _, name := range []string{"sor", "seq", "2dfft", "hist"} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := core.QuickConfig(name, 0, 42)
			_, coldRep, err := runStream(New(Options{Workers: 1}), cfg)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := MarshalReport(coldRep)
			if err != nil {
				t.Fatal(err)
			}

			c, err := OpenCache(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := New(Options{Workers: 1, Cache: c}).Run(cfg); err != nil {
				t.Fatal(err)
			}
			warmFarm := New(Options{Workers: 1, Cache: c})
			_, warmRep, err := runStream(warmFarm, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if s := warmFarm.Stats(); s.Executed != 0 || s.CacheHits != 1 {
				t.Fatalf("stats %+v: the stream job must be answered from the trace job's entry", s)
			}
			warm, err := MarshalReport(warmRep)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(cold, warm) {
				t.Errorf("stream report differs by cache state (%d vs %d bytes): AggSize.SD cold %.17g, from the .fxrun entry %.17g",
					len(cold), len(warm), coldRep.AggSize.SD, warmRep.AggSize.SD)
			}
		})
	}
}

// TestDecodedTraceReportMatchesLiveStream: the characterization a trace
// run's file yields — encoded, decoded into chunks, folded chunk by
// chunk by CharacterizeTrace — marshals to the bytes of the Report the
// stream run of the same -quick configuration folded live.
func TestDecodedTraceReportMatchesLiveStream(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two -quick programs twice")
	}
	for _, name := range []string{"seq", "airshed"} {
		cfg := core.QuickConfig(name, 0, 42)
		res, err := core.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var enc bytes.Buffer
		if err := res.Trace.WriteBinary(&enc); err != nil {
			t.Fatal(err)
		}
		decoded, err := trace.ReadBinary(&enc)
		if err != nil {
			t.Fatal(err)
		}
		replay, err := MarshalReport(analysis.CharacterizeTrace(decoded, name, res.RepConn))
		if err != nil {
			t.Fatal(err)
		}
		_, liveRep, err := core.RunStream(cfg)
		if err != nil {
			t.Fatal(err)
		}
		live, err := MarshalReport(liveRep)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(replay, live) {
			t.Errorf("%s: decoded-trace report (%d bytes) differs from the live stream report (%d bytes)", name, len(replay), len(live))
		}
	}
}
