package server

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"fxnet/internal/core"
	"fxnet/internal/durable"
	"fxnet/internal/farm"
	"fxnet/internal/journal"
)

// journaledServer builds a server over dir's journal (and run cache) and
// replays it to readiness. The returned server is what a freshly booted
// fxnetd would be.
func journaledServer(t *testing.T, dir string, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	opts.JournalPath = filepath.Join(dir, "journal.wal")
	if opts.CacheDir == "" {
		opts.CacheDir = filepath.Join(dir, "cache")
	}
	if opts.FS == nil {
		opts.FS = durable.OSFS{}
	}
	opts.FS = noSyncFS{opts.FS} // tmpfs fsync noise is not what these tests measure
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Recover(context.Background()); err != nil {
		t.Fatalf("recover: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		// Wait out jobs still simulating (a "crashed" server's goroutines
		// keep running) so their cache writes cannot race the temp-dir
		// removal.
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
		s.Close()
	})
	return s, ts
}

// noSyncFS is a filesystem whose fsyncs do nothing.
type noSyncFS struct{ durable.FS }

type noSyncFile struct{ durable.File }

func (noSyncFile) Sync() error { return nil }

func (fs noSyncFS) OpenFile(name string, flag int, perm os.FileMode) (durable.File, error) {
	f, err := fs.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return noSyncFile{f}, nil
}

func (noSyncFS) SyncDir(string) error { return nil }

// crash abandons a server the way SIGKILL would: no drain, no flush,
// just the journal handle gone. In-flight goroutines keep running (as a
// killed process's page cache keeps its completed writes), which is
// fine — the journal already holds every acknowledged submission.
func crash(s *Server, ts *httptest.Server) {
	ts.Close()
	s.Close()
}

func traceBytes(t *testing.T, base, id string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/runs/" + id + "/trace?format=bin")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace %s: HTTP %d", id, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// A configuration the run path refuses is refused at submit, with the
// run path's own message: nothing is journaled and no job exists to fail
// later in the farm.
func TestSubmitRefusedConfigLeavesNoTrace(t *testing.T) {
	dir := t.TempDir()
	s, ts := journaledServer(t, dir, Options{Workers: 1})
	journalSize := func() int64 {
		fi, err := os.Stat(filepath.Join(dir, "journal.wal"))
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	before := journalSize()
	req := cheapRun()
	req.Topology = "lan0:0-1,lan1:2-3"
	req.Faults = "5s:linkdown host2"
	var e map[string]string
	if code := doJSON(t, "POST", ts.URL+"/v1/runs", req, &e); code != http.StatusBadRequest {
		t.Fatalf("HTTP %d, want 400", code)
	}
	cfg := core.RunConfig{Program: req.Program, P: req.P, FaultScript: req.Faults}
	cfg.Topology, _ = core.ParseTopology(req.Topology)
	if want := core.Validate(cfg); want == nil || e["error"] != want.Error() {
		t.Errorf("error %q, want the run path's %v", e["error"], want)
	}
	for state, n := range s.jobs.counts() {
		if n != 0 {
			t.Errorf("%d %s job(s) after a refused submit", n, state)
		}
	}
	if after := journalSize(); after != before {
		t.Errorf("journal grew %d → %d bytes on a refused submit", before, after)
	}
	// The same fault script on a one-segment topology is a job.
	req.Topology = "lan0:0-3"
	if st := waitState(t, ts.URL, submit(t, ts.URL, req)); st.State != stateDone {
		t.Errorf("one-segment topology with faults: %s (%s)", st.State, st.Error)
	}
}

// Fault scripts that used to pass Validate and die in faults.Apply once
// the fabric was built — leaving a `submitted` record for a job that
// could only fail — are 400s with Apply's message and journal nothing.
func TestSubmitUnrunnableFaultScriptLeavesNoTrace(t *testing.T) {
	dir := t.TempDir()
	s, ts := journaledServer(t, dir, Options{Workers: 1})
	journalSize := func() int64 {
		fi, err := os.Stat(filepath.Join(dir, "journal.wal"))
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	before := journalSize()
	for _, tc := range []struct {
		mutate func(*RunRequest)
		want   string
	}{
		{func(r *RunRequest) { r.Faults = "1s:linkdown nosuchhost" }, `faults: unknown host "nosuchhost"`},
		{func(r *RunRequest) { r.Faults = "1s:crash host9" }, `faults: unknown host "host9"`},
		{func(r *RunRequest) { r.Switched, r.Faults = true, "1s:linkdown host1" }, "faults: linkdown not supported by this topology"},
	} {
		req := cheapRun()
		tc.mutate(&req)
		var e map[string]string
		if code := doJSON(t, "POST", ts.URL+"/v1/runs", req, &e); code != http.StatusBadRequest {
			t.Errorf("%q: HTTP %d, want 400", req.Faults, code)
		}
		if e["error"] != tc.want {
			t.Errorf("%q: error %q, want %q", req.Faults, e["error"], tc.want)
		}
	}
	for state, n := range s.jobs.counts() {
		if n != 0 {
			t.Errorf("%d %s job(s) after refused submits", n, state)
		}
	}
	if after := journalSize(); after != before {
		t.Errorf("journal grew %d → %d bytes on refused submits", before, after)
	}
}

// refusedRequests are cheapRun edits that config() refuses, with the
// message the 400 carries.
var refusedRequests = []struct {
	mutate func(*RunRequest)
	want   string
}{
	{func(r *RunRequest) { r.BitRate = -5 }, "core: BitRate -5 is not a finite non-negative rate"},
	{func(r *RunRequest) { r.CrossKBps = -1 }, "core: CrossTrafficKBps -1 is not a finite non-negative rate"},
	{func(r *RunRequest) { r.Topology = "lan0:0-3@NaN" }, `bad topology: core: segment "lan0" bit rate NaN is not a finite non-negative rate`},
	{func(r *RunRequest) { r.Topology = "lan0:0-3@Inf" }, `bad topology: core: segment "lan0" bit rate +Inf is not a finite non-negative rate`},
	{func(r *RunRequest) { r.BitRate = 1e-300 }, "core: BitRate 1e-300 is below the 1 b/s floor"},
	{func(r *RunRequest) { r.Topology = "lan0:0-3@1e-300" }, `bad topology: core: segment "lan0" bit rate 1e-294 is below the 1 b/s floor`},
	{func(r *RunRequest) { r.Faults = "0s:bitrate 1e-300" }, `faults: "0s:bitrate 1e-300": bit rate must be positive, finite and at least 1 b/s`},
	{func(r *RunRequest) { r.Faults = "0s:bitrate NaN" }, `faults: "0s:bitrate NaN": bit rate must be positive, finite and at least 1 b/s`},
	{func(r *RunRequest) { r.Faults = "1s:duplicate NaN" }, `faults: "1s:duplicate NaN": probability outside [0,1]`},
}

// A rate that is negative, NaN, infinite or below faults.MinBitRate is a
// 400 naming the field, and nothing is journaled: a negative bit rate
// used to run at the 10 Mb/s default, a NaN segment rate passed the "< 0"
// check, and a 1e-300 b/s rate (or a NaN fault rate) panicked the run.
// JSON has no NaN or Inf, but the topology spec's "@Mb/s" and the fault
// script parse both.
func TestSubmitBadRateLeavesNoTrace(t *testing.T) {
	dir := t.TempDir()
	s, ts := journaledServer(t, dir, Options{Workers: 1})
	journalSize := func() int64 {
		fi, err := os.Stat(filepath.Join(dir, "journal.wal"))
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	before := journalSize()
	for _, tc := range refusedRequests {
		req := cheapRun()
		tc.mutate(&req)
		var e map[string]string
		if code := doJSON(t, "POST", ts.URL+"/v1/runs", req, &e); code != http.StatusBadRequest {
			t.Errorf("%+v: HTTP %d, want 400", req, code)
		}
		if e["error"] != tc.want {
			t.Errorf("%+v: error %q, want %q", req, e["error"], tc.want)
		}
	}
	for state, n := range s.jobs.counts() {
		if n != 0 {
			t.Errorf("%d %s job(s) after refused submits", n, state)
		}
	}
	if after := journalSize(); after != before {
		t.Errorf("journal grew %d → %d bytes on refused submits", before, after)
	}
}

// FuzzRunRequest: a POST /v1/runs body that decodes never panics
// config(), and a configuration config() accepts is the one recovery
// rebuilds: the request, journaled as a submittedRec and read back,
// passes config() again with an equal configuration and the journaled
// farm key.
func FuzzRunRequest(f *testing.F) {
	seed := func(req RunRequest) {
		b, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	seed(cheapRun())
	for _, tc := range refusedRequests {
		req := cheapRun()
		tc.mutate(&req)
		seed(req)
	}
	seed(RunRequest{Program: "airshed", Hours: 2, Analysis: "stream"})
	seed(RunRequest{Program: "2dfft", P: 4, Topology: "lan0:0-1~2ms,lan1:2-3@100", Faults: "1s:crash host1"})
	seed(RunRequest{Program: "2dfft", P: 4, Topology: "lan0:0-1~2ms,lan1:2-3@100e6"})
	seed(RunRequest{Program: "seq", P: 4, Switched: true, Nagle: true, Loss: 0.5, CrossKBps: 100, Guarantee: true, Degrade: true})
	for _, body := range []string{`{"program":"sor","p":-1}`, `{"program":"hist","hours":-3}`, `{"program":"nosuch"}`,
		`{"program":"sor","loss":2}`, `{"program":"sor","topology":"lan0:0-3,lan0:0-3"}`, `{}`, `null`} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req RunRequest
		if json.Unmarshal(body, &req) != nil {
			return
		}
		cfg, err := req.config()
		if err != nil {
			return
		}
		rec, err := json.Marshal(submittedRec{ID: "1", Key: farm.Key(cfg), Request: req})
		if err != nil {
			t.Fatalf("%s: journal record: %v", body, err)
		}
		var sub submittedRec
		if err := json.Unmarshal(rec, &sub); err != nil {
			t.Fatalf("%s: journal record %s: %v", body, rec, err)
		}
		replayed, err := sub.Request.config()
		switch {
		case err != nil:
			t.Fatalf("%s: accepted at submit, refused on replay of %s: %v", body, rec, err)
		case farm.Key(replayed) != sub.Key:
			t.Fatalf("%s: replay keys %s, the journal %s", body, farm.Key(replayed), sub.Key)
		case !reflect.DeepEqual(replayed, cfg):
			t.Fatalf("%s: replay builds %+v, submit built %+v", body, replayed, cfg)
		}
	})
}

// The tentpole invariant: every job acknowledged with a 202 before a
// crash reaches done after restart, and the recomputed (or cache-served)
// trace is byte-identical to what the pre-crash server would have
// produced.
func TestRecoveryCompletesAcknowledgedJobs(t *testing.T) {
	dir := t.TempDir()
	a, tsA := journaledServer(t, dir, Options{Workers: 2, Memoize: true})

	// One job runs to completion before the crash; its trace digest is
	// the ground truth the recovered server must reproduce.
	doneID := submit(t, tsA.URL, cheapRun())
	if st := waitState(t, tsA.URL, doneID); st.State != stateDone {
		t.Fatalf("pre-crash run: %s", st.State)
	}
	wantDigest := sha256.Sum256(traceBytes(t, tsA.URL, doneID))

	// Several more acknowledged but (likely) still queued or running.
	var pending []string
	for seed := int64(2); seed <= 5; seed++ {
		pending = append(pending, submit(t, tsA.URL, RunRequest{Program: "sor", P: 4, N: 32, Iters: 4, Seed: seed}))
	}
	// And one that takes ≈ 0.3 s, so it is unfinished at the crash
	// whatever the host's speed: the crashed server's worker completes it
	// against the closed journal, and its terminal record fails to append.
	pending = append(pending, submit(t, tsA.URL, RunRequest{Program: "seq", P: 4, N: 64, Iters: 15, Seed: 1}))
	crash(a, tsA)

	_, tsB := journaledServer(t, dir, Options{Workers: 2, Memoize: true})
	for _, id := range append([]string{doneID}, pending...) {
		if st := waitState(t, tsB.URL, id); st.State != stateDone {
			t.Fatalf("recovered run %s: %s (%s)", id, st.State, st.Error)
		}
	}
	if got := sha256.Sum256(traceBytes(t, tsB.URL, doneID)); got != wantDigest {
		t.Fatal("recovered trace is not byte-identical to the pre-crash trace")
	}
}

// Cancelled jobs must stay cancelled across a crash — recovery may not
// resurrect work the client explicitly abandoned.
func TestRecoveryPreservesCancellation(t *testing.T) {
	dir := t.TempDir()
	a, tsA := journaledServer(t, dir, Options{Workers: 1})

	// Occupy the single worker so the victim is provably queued.
	blocker := submit(t, tsA.URL, RunRequest{Program: "seq", P: 4, N: 64, Iters: 60, Seed: 1})
	deadline := time.Now().Add(10 * time.Second)
	for a.farm.Stats().Running == 0 {
		if time.Now().After(deadline) {
			t.Fatal("blocker never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	victim := submit(t, tsA.URL, RunRequest{Program: "seq", P: 4, N: 64, Iters: 60, Seed: 2})
	if code := doJSON(t, "DELETE", tsA.URL+"/v1/runs/"+victim, nil, nil); code != http.StatusOK {
		t.Fatalf("cancel: HTTP %d", code)
	}
	doJSON(t, "DELETE", tsA.URL+"/v1/runs/"+blocker, nil, nil)
	crash(a, tsA)

	b, tsB := journaledServer(t, dir, Options{Workers: 1})
	var st statusJSON
	if code := doJSON(t, "GET", tsB.URL+"/v1/runs/"+victim, nil, &st); code != http.StatusOK {
		t.Fatalf("recovered victim: HTTP %d", code)
	}
	if st.State != stateCancelled {
		t.Fatalf("recovered victim state = %s, want cancelled", st.State)
	}
	// Executed simulations on the recovered node: the cancelled victim
	// must not be among them. (The cancelled blocker may re-run — it was
	// cancelled too, so it also must not execute.)
	if got := b.farm.Stats().Executed; got != 0 {
		t.Errorf("recovered node executed %d simulations, want 0 (both jobs were cancelled)", got)
	}
}

// An idempotency key continues deduplicating after a crash: the retried
// submit lands on the originally acknowledged job, not a new one.
func TestRecoveryPreservesIdempotencyKeys(t *testing.T) {
	dir := t.TempDir()
	a, tsA := journaledServer(t, dir, Options{Workers: 2, Memoize: true})

	req, _ := http.NewRequest("POST", tsA.URL+"/v1/runs",
		strings.NewReader(`{"program":"sor","p":4,"n":32,"iters":4,"seed":9}`))
	req.Header.Set(IdempotencyKeyHeader, "key-abc")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var acc struct {
		ID string `json:"id"`
	}
	if err := jsonDecode(resp, &acc); err != nil || acc.ID == "" {
		t.Fatalf("submit: %v (id %q)", err, acc.ID)
	}
	crash(a, tsA)

	_, tsB := journaledServer(t, dir, Options{Workers: 2, Memoize: true})
	req2, _ := http.NewRequest("POST", tsB.URL+"/v1/runs",
		strings.NewReader(`{"program":"sor","p":4,"n":32,"iters":4,"seed":9}`))
	req2.Header.Set(IdempotencyKeyHeader, "key-abc")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	var acc2 struct {
		ID     string `json:"id"`
		Replay bool   `json:"idempotent_replay"`
	}
	if err := jsonDecode(resp2, &acc2); err != nil {
		t.Fatal(err)
	}
	if acc2.ID != acc.ID || !acc2.Replay {
		t.Fatalf("retried submit after crash: id %q replay %v, want original id %q", acc2.ID, acc2.Replay, acc.ID)
	}
}

// QoS grants survive the crash; released ones do not; and a recovered
// admission ID releases exactly once (the double-release race).
func TestRecoveryRestoresGrants(t *testing.T) {
	dir := t.TempDir()
	a, tsA := journaledServer(t, dir, Options{Workers: 1})

	var g1, g2 struct {
		Offer OfferJSON `json:"offer"`
	}
	doJSON(t, "POST", tsA.URL+"/v1/qos/negotiate", NegotiateRequest{Program: "sor", Client: "alice"}, &g1)
	doJSON(t, "POST", tsA.URL+"/v1/qos/negotiate", NegotiateRequest{Program: "2dfft", Client: "bob"}, &g2)
	if g1.Offer.ID == 0 || g2.Offer.ID == 0 {
		t.Fatalf("grants: %+v %+v", g1, g2)
	}
	if code := doJSON(t, "DELETE", fmt.Sprintf("%s/v1/qos/commitments/%d", tsA.URL, g1.Offer.ID), nil, nil); code != http.StatusOK {
		t.Fatalf("release: HTTP %d", code)
	}
	crash(a, tsA)

	_, tsB := journaledServer(t, dir, Options{Workers: 1})
	var list struct {
		Commitments []OfferJSON `json:"commitments"`
	}
	doJSON(t, "GET", tsB.URL+"/v1/qos/commitments", nil, &list)
	if len(list.Commitments) != 1 || list.Commitments[0].ID != g2.Offer.ID {
		t.Fatalf("recovered commitments = %+v, want exactly admission %d", list.Commitments, g2.Offer.ID)
	}
	// The released grant must not come back.
	url1 := fmt.Sprintf("%s/v1/qos/commitments/%d", tsB.URL, g1.Offer.ID)
	if code := doJSON(t, "DELETE", url1, nil, nil); code != http.StatusNotFound {
		t.Errorf("releasing pre-crash-released admission: HTTP %d, want 404", code)
	}
	// The surviving grant releases once, then 404s.
	url2 := fmt.Sprintf("%s/v1/qos/commitments/%d", tsB.URL, g2.Offer.ID)
	if code := doJSON(t, "DELETE", url2, nil, nil); code != http.StatusOK {
		t.Errorf("release recovered admission: HTTP %d, want 200", code)
	}
	if code := doJSON(t, "DELETE", url2, nil, nil); code != http.StatusNotFound {
		t.Errorf("double release recovered admission: HTTP %d, want 404", code)
	}
	// New admissions must not collide with recovered IDs.
	var g3 struct {
		Offer OfferJSON `json:"offer"`
	}
	doJSON(t, "POST", tsB.URL+"/v1/qos/negotiate", NegotiateRequest{Program: "sor"}, &g3)
	if g3.Offer.ID <= g2.Offer.ID {
		t.Errorf("post-recovery admission ID %d not above recovered max %d", g3.Offer.ID, g2.Offer.ID)
	}
}

// A torn tail — the crash landed mid-append — costs exactly the torn
// record, never the journal, wherever in the record's frame the tear
// falls: in its body or in its 8-byte length+checksum header.
func TestRecoveryTruncatesTornTail(t *testing.T) {
	for _, tc := range []struct {
		name string
		keep func(frame int) int // bytes of the last frame that survive
	}{
		{"body", func(frame int) int { return frame - 3 }},
		{"header", func(int) int { return 4 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			a, tsA := journaledServer(t, dir, Options{Workers: 2, Memoize: true})
			id := submit(t, tsA.URL, cheapRun())
			if st := waitState(t, tsA.URL, id); st.State != stateDone {
				t.Fatalf("pre-crash run: %s", st.State)
			}
			// done is reported before the terminal record is appended.
			if j, ok := a.jobs.get(id); ok {
				<-j.done
			}
			crash(a, tsA)

			// Tear the last record, the job's terminal one. It becomes
			// unreadable; the submission before it must survive.
			body, err := json.Marshal(terminalRec{ID: id, State: stateDone})
			if err != nil {
				t.Fatal(err)
			}
			frame := 8 + 1 + len(body)
			jp := filepath.Join(dir, "journal.wal")
			fi, err := os.Stat(jp)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(jp, fi.Size()-int64(frame-tc.keep(frame))); err != nil {
				t.Fatal(err)
			}

			b, tsB := journaledServer(t, dir, Options{Workers: 2, Memoize: true})
			if got := b.jstats.truncated.Load(); got != int64(tc.keep(frame)) {
				t.Errorf("journal stats report %d torn bytes, want %d", got, tc.keep(frame))
			}
			// The job lost its terminal record, so it replays as pending
			// and re-enqueues; the cache answers it and it converges to
			// done.
			if st := waitState(t, tsB.URL, id); st.State != stateDone {
				t.Fatalf("run after torn-tail recovery: %s (%s)", st.State, st.Error)
			}
			// /healthz surfaces the truncation.
			var hz struct {
				Journal map[string]any `json:"journal"`
			}
			doJSON(t, "GET", tsB.URL+"/healthz", nil, &hz)
			if tb, _ := hz.Journal["truncated_bytes"].(float64); tb <= 0 {
				t.Errorf("healthz journal = %v, want truncated_bytes > 0", hz.Journal)
			}
		})
	}
}

// A journal written by a node that minted shard-prefixed job IDs still
// replays: the job finishes and answers under its journaled ID, and the
// next submit continues the sequence after it.
func TestRecoveryReplaysShardPrefixedIDs(t *testing.T) {
	dir := t.TempDir()
	req := cheapRun()
	cfg, err := req.config()
	if err != nil {
		t.Fatal(err)
	}
	jn, _, err := journal.Open(filepath.Join(dir, "journal.wal"), journal.Options{}, func(journal.Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	rec := fmt.Sprintf(`{"id":"r-s1-00000041","key":%q,"analysis":"trace","request":{"program":"sor","p":4,"n":32,"iters":4,"seed":1}}`, farm.Key(cfg))
	if err := jn.Append(journal.OpSubmitted, []byte(rec)); err != nil {
		t.Fatal(err)
	}
	if err := jn.Close(); err != nil {
		t.Fatal(err)
	}

	_, ts := journaledServer(t, dir, Options{Workers: 1})
	if st := waitState(t, ts.URL, "r-s1-00000041"); st.State != stateDone {
		t.Fatalf("replayed r-s1-00000041: %s (%s)", st.State, st.Error)
	}
	if id := submit(t, ts.URL, cheapRun()); id != "r-00000042" {
		t.Fatalf("next submit got %s, want r-00000042", id)
	}
}

// restoreSeq reads the sequence from the segment after the last dash,
// whatever shard segment precedes it, and ignores IDs with no number.
func TestRestoreSeqShardPrefixed(t *testing.T) {
	for _, tc := range []struct{ id, next string }{
		{"r-00000001", "r-00000002"},
		{"r-s2-00000041", "r-00000042"},
		{"r-a-b-00000007", "r-00000008"},
		{"nonsense", "r-00000001"},
		{"", "r-00000001"},
	} {
		r := newJobRegistry(nil)
		r.restoreSeq(tc.id)
		if id := r.allocID(); id != tc.next {
			t.Errorf("allocID after restoreSeq(%q) = %s, want %s", tc.id, id, tc.next)
		}
	}
}

// A bit flip in the last record fails its CRC — or, in its length
// field, its plausibility bound, before any allocation — and everything
// from the flipped record on is untrusted and dropped; everything before
// it recovers.
func TestRecoverySurvivesBitFlip(t *testing.T) {
	for _, tc := range []struct {
		name string
		at   func(size, frame int) int // offset of the flipped byte
	}{
		{"body", func(size, _ int) int { return size - 5 }},
		{"length", func(size, frame int) int { return size - frame + 3 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			a, tsA := journaledServer(t, dir, Options{Workers: 2, Memoize: true})
			id := submit(t, tsA.URL, cheapRun())
			if st := waitState(t, tsA.URL, id); st.State != stateDone {
				t.Fatalf("pre-crash run: %s", st.State)
			}
			// done is reported before the terminal record is appended.
			if j, ok := a.jobs.get(id); ok {
				<-j.done
			}
			crash(a, tsA)

			body, err := json.Marshal(terminalRec{ID: id, State: stateDone})
			if err != nil {
				t.Fatal(err)
			}
			jp := filepath.Join(dir, "journal.wal")
			raw, err := os.ReadFile(jp)
			if err != nil {
				t.Fatal(err)
			}
			raw[tc.at(len(raw), 8+1+len(body))] ^= 0x40
			if err := os.WriteFile(jp, raw, 0o644); err != nil {
				t.Fatal(err)
			}

			b, tsB := journaledServer(t, dir, Options{Workers: 2, Memoize: true})
			if b.jstats.truncated.Load() == 0 {
				t.Error("bit flip not detected as truncation")
			}
			if st := waitState(t, tsB.URL, id); st.State != stateDone {
				t.Fatalf("run after bit-flip recovery: %s (%s)", st.State, st.Error)
			}
		})
	}
}

// SIGTERM during replay: the context cancels Recover mid-loop; the node
// never turns ready, keeps refusing submissions, and the un-replayed
// records stay in the journal for the next boot, which recovers fully.
func TestSigtermDuringReplay(t *testing.T) {
	dir := t.TempDir()
	a, tsA := journaledServer(t, dir, Options{Workers: 2, Memoize: true})
	var ids []string
	for seed := int64(1); seed <= 4; seed++ {
		ids = append(ids, submit(t, tsA.URL, RunRequest{Program: "sor", P: 4, N: 32, Iters: 4, Seed: seed}))
	}
	crash(a, tsA)

	// Boot B with an already-cancelled context: replay aborts on the
	// first job, exactly as a SIGTERM arriving during a long replay.
	optsB := Options{Workers: 2, Memoize: true,
		JournalPath: filepath.Join(dir, "journal.wal"), CacheDir: filepath.Join(dir, "cache"), FS: noSyncFS{durable.OSFS{}}}
	b, err := New(optsB)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := b.Recover(ctx); err == nil {
		t.Fatal("Recover with cancelled context returned nil, want ctx error")
	}
	if b.Ready() {
		t.Fatal("aborted recovery left the server ready")
	}
	tsB := httptest.NewServer(b.Handler())
	if code := doJSON(t, "POST", tsB.URL+"/v1/runs", cheapRun(), nil); code != http.StatusServiceUnavailable {
		t.Errorf("submit on never-ready node: HTTP %d, want 503", code)
	}
	if code := doJSON(t, "GET", tsB.URL+"/readyz", nil, nil); code != http.StatusServiceUnavailable {
		t.Errorf("/readyz on never-ready node: HTTP %d, want 503", code)
	}
	tsB.Close()
	b.Close()

	// The next boot finds the same journal and completes every promise.
	_, tsC := journaledServer(t, dir, Options{Workers: 2, Memoize: true})
	for _, id := range ids {
		if st := waitState(t, tsC.URL, id); st.State != stateDone {
			t.Fatalf("run %s after aborted-then-retried recovery: %s", id, st.State)
		}
	}
}

// A client that disconnects while its submit is stalled in a slow-disk
// journal append must not wedge the server or void the promise: the
// append finishes on the server's side and the job is durable.
func TestClientDisconnectDuringJournalAppend(t *testing.T) {
	dir := t.TempDir()
	ffs := &durable.FaultFS{FS: durable.OSFS{}, WriteBudget: -1, WriteDelay: 30 * time.Millisecond}
	opts := Options{Workers: 2, Memoize: true,
		JournalPath: filepath.Join(dir, "journal.wal"), CacheDir: filepath.Join(dir, "cache"),
		FS: noSyncFS{ffs}}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Recover(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())

	// Fire a submit whose context dies mid-append (the journal write
	// stalls 30ms per write; the client gives up after 5ms).
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/runs",
		strings.NewReader(`{"program":"sor","p":4,"n":32,"iters":4,"seed":42}`))
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
		t.Log("submit returned before cancel; race not exercised this run")
	}

	// The server must still answer and accept new work afterwards.
	id := submit(t, ts.URL, cheapRun())
	if st := waitState(t, ts.URL, id); st.State != stateDone {
		t.Fatalf("post-disconnect submit: %s", st.State)
	}
	crash(s, ts)

	// Whatever the disconnected submit journaled, recovery must be
	// clean: every journaled job converges to a terminal state.
	b, tsB := journaledServer(t, dir, Options{Workers: 2, Memoize: true})
	deadline := time.Now().Add(30 * time.Second)
	for {
		fs := b.farm.Stats()
		if fs.Submitted == fs.Completed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("recovered jobs never drained")
		}
		time.Sleep(5 * time.Millisecond)
	}
	_ = tsB

	// The crashed server's disconnected submit may still be simulating in
	// the background; wait it out so its cache write cannot race the
	// test's temp-dir cleanup.
	dctx, dcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer dcancel()
	_ = s.Drain(dctx)
}

// Concurrent retries of one keyed submit land on one job. Without the
// reservation, each retry that overlaps the first attempt's slow
// journal append sees no key yet, mints its own ID and journals its own
// submitted record.
func TestConcurrentKeyedSubmitsCreateOneJob(t *testing.T) {
	for _, tc := range []struct {
		name, path string
		body       any
	}{
		{"run", "/v1/runs", cheapRun()},
		{"fit", "/v1/models/fit", FitRequest{RunRequest: fitRun()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ffs := &durable.FaultFS{FS: durable.OSFS{}, WriteBudget: -1, WriteDelay: 50 * time.Millisecond}
			_, ts := journaledServer(t, t.TempDir(), Options{Workers: 2, Memoize: true, FS: ffs})
			body, err := json.Marshal(tc.body)
			if err != nil {
				t.Fatal(err)
			}
			const retries = 4
			ids := make(chan string, retries)
			for range retries {
				go func() {
					req, _ := http.NewRequest("POST", ts.URL+tc.path, strings.NewReader(string(body)))
					req.Header.Set(IdempotencyKeyHeader, "one-key")
					var acc struct {
						ID string `json:"id"`
					}
					resp, err := http.DefaultClient.Do(req)
					if err == nil {
						if resp.StatusCode != http.StatusAccepted {
							t.Errorf("submit: HTTP %d", resp.StatusCode)
						}
						err = jsonDecode(resp, &acc)
					}
					if err != nil {
						t.Errorf("submit: %v", err)
					}
					ids <- acc.ID
				}()
			}
			seen := map[string]bool{}
			for range retries {
				seen[<-ids] = true
			}
			if len(seen) != 1 {
				t.Errorf("%d concurrent retries of one key got job IDs %v, want one", retries, seen)
			}
			if n := metricValue(t, fetchMetrics(t, ts.URL), `fxnetd_journal_appends_total{op="submitted"}`); n != 1 {
				t.Errorf("journaled %g submitted records, want 1", n)
			}
		})
	}
}

// When the disk fills, submits fail closed: 503 "journal unavailable",
// no 202 the server cannot honor. Already-acknowledged work is
// unaffected.
func TestFullDiskFailsSubmitsClosed(t *testing.T) {
	dir := t.TempDir()
	ffs := &durable.FaultFS{FS: durable.OSFS{}, WriteBudget: -1}
	opts := Options{Workers: 2, Memoize: true,
		JournalPath: filepath.Join(dir, "journal.wal"), CacheDir: filepath.Join(dir, "cache"),
		FS: noSyncFS{ffs}}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Recover(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); s.Close() }()

	id := submit(t, ts.URL, cheapRun())
	if st := waitState(t, ts.URL, id); st.State != stateDone {
		t.Fatalf("pre-full run: %s", st.State)
	}
	// The job reports done before its terminal record is journaled; let
	// that append land before the disk fills.
	if j, ok := s.jobs.get(id); ok {
		<-j.done
	}

	// Disk full from here on.
	ffs.WriteBudget = 0
	var e map[string]string
	if code := doJSON(t, "POST", ts.URL+"/v1/runs",
		RunRequest{Program: "sor", P: 4, N: 32, Iters: 4, Seed: 77}, &e); code != http.StatusServiceUnavailable {
		t.Fatalf("submit on full disk: HTTP %d, want 503", code)
	}
	if !strings.Contains(e["error"], "journal") {
		t.Errorf("full-disk error = %q, want journal unavailable", e["error"])
	}
	// A keyed submit the journal refuses drops its key's reservation: the
	// retry is refused in turn instead of waiting on it forever.
	for range 2 {
		req, _ := http.NewRequest("POST", ts.URL+"/v1/runs",
			strings.NewReader(`{"program":"sor","p":4,"n":32,"iters":4,"seed":78}`))
		req.Header.Set(IdempotencyKeyHeader, "full-disk")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("keyed submit on full disk: HTTP %d, want 503", resp.StatusCode)
		}
	}
	// The acknowledged job still answers.
	if st := waitState(t, ts.URL, id); st.State != stateDone {
		t.Errorf("acknowledged run after disk full: %s", st.State)
	}
	if s.jstats.appendFails.Load() == 0 {
		t.Error("append failure not counted")
	}
}

func jsonDecode(resp *http.Response, out any) error {
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, out)
}
