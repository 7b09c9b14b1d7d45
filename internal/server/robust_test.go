package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"fxnet/internal/core"
	"fxnet/internal/durable"
)

// The breaker opens after N consecutive failures, refuses while open,
// admits a single half-open probe after the cooldown, and the probe's
// outcome decides its fate.
func TestBreakerLifecycle(t *testing.T) {
	clock := time.Unix(0, 0)
	b := newBreaker(3, time.Second)
	b.now = func() time.Time { return clock }

	for i := 0; i < 3; i++ {
		if !b.allow() {
			t.Fatalf("closed breaker refused before threshold (failure %d)", i)
		}
		b.failure()
	}
	if b.allow() {
		t.Fatal("breaker admitted after hitting the failure threshold")
	}
	if st, opened := b.snapshot(); st != breakerOpen || opened != 1 {
		t.Fatalf("state %s opened %d, want open/1", breakerStateName(st), opened)
	}

	// Cooldown elapses: exactly one probe gets through.
	clock = clock.Add(time.Second)
	if !b.allow() {
		t.Fatal("no half-open probe after cooldown")
	}
	if b.allow() {
		t.Fatal("second concurrent probe admitted in half-open")
	}

	// Probe fails: straight back to open, no threshold grace.
	b.failure()
	if b.allow() {
		t.Fatal("breaker admitted right after a failed probe")
	}
	if _, opened := b.snapshot(); opened != 2 {
		t.Fatalf("opened %d times, want 2", opened)
	}

	// Next probe succeeds: closed again, counter reset.
	clock = clock.Add(time.Second)
	if !b.allow() {
		t.Fatal("no probe after second cooldown")
	}
	b.success()
	for i := 0; i < 2; i++ {
		if !b.allow() {
			t.Fatal("closed breaker refusing after successful probe")
		}
		b.failure()
	}
	if !b.allow() {
		t.Fatal("failure counter not reset by success")
	}
}

// One success anywhere resets the consecutive count — the breaker
// reacts to a farm that fails everything, not to a lossy workload.
func TestBreakerSuccessResetsCount(t *testing.T) {
	b := newBreaker(3, time.Second)
	for i := 0; i < 10; i++ {
		b.failure()
		b.failure()
		b.success()
	}
	if !b.allow() {
		t.Fatal("interleaved successes still opened the breaker")
	}
}

// probeBreaker opens s's breaker and moves its clock past the cooldown,
// so the next submit the gate admits is the half-open probe.
func probeBreaker(t *testing.T, s *Server) {
	t.Helper()
	b := s.breaker
	opened := time.Unix(0, 0)
	b.mu.Lock()
	b.now = func() time.Time { return opened }
	b.mu.Unlock()
	for range breakerThreshold {
		b.failure()
	}
	if st, _ := b.snapshot(); st != breakerOpen {
		t.Fatalf("breaker %s after %d failures, want open", breakerStateName(st), breakerThreshold)
	}
	b.mu.Lock()
	b.now = func() time.Time { return opened.Add(breakerCooldown) }
	b.mu.Unlock()
}

// submitReply is the part of a submit's answer these tests read: the
// job of a 202, the message of a refusal.
type submitReply struct {
	ID    string `json:"id"`
	Error string `json:"error"`
}

// postRun submits req, with an Idempotency-Key when key is set.
func postRun(t *testing.T, base, key string, req RunRequest) (int, submitReply) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.NewRequest("POST", base+"/v1/runs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if key != "" {
		hr.Header.Set(IdempotencyKeyHeader, key)
	}
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	var out submitReply
	if err := jsonDecode(resp, &out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// A half-open probe that replays an existing Idempotency-Key starts no
// job, so no verdict will ever come back for it: the slot must be given
// back, or every later submit is refused.
func TestBreakerProbeReplayGivesSlotBack(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	code, first := postRun(t, ts.URL, "replayed", cheapRun())
	if code != http.StatusAccepted {
		t.Fatalf("first keyed submit: HTTP %d %s", code, first.Error)
	}
	j, _ := s.jobs.get(first.ID)
	<-j.done // its success has reached the breaker

	probeBreaker(t, s)
	if code, r := postRun(t, ts.URL, "replayed", cheapRun()); code != http.StatusAccepted || r.ID != first.ID {
		t.Fatalf("replayed probe: HTTP %d job %q %s, want 202 for %s", code, r.ID, r.Error, first.ID)
	}
	if code, r := postRun(t, ts.URL, "", RunRequest{Program: "sor", P: 4, N: 32, Iters: 4, Seed: 2}); code != http.StatusAccepted {
		t.Fatalf("submit after a replayed probe: HTTP %d %s, want 202", code, r.Error)
	}
}

// A half-open probe the journal refuses starts no job. The journal stays
// broken, so the next submit is refused too, but by the journal, not by
// a breaker waiting on a probe that never ran.
func TestBreakerProbeJournalRefusalGivesSlotBack(t *testing.T) {
	ffs := &durable.FaultFS{FS: durable.OSFS{}, WriteBudget: -1}
	s, ts := journaledServer(t, t.TempDir(), Options{Workers: 1, FS: ffs})
	probeBreaker(t, s)
	ffs.WriteBudget = 0
	for i := range 2 {
		code, r := postRun(t, ts.URL, "", RunRequest{Program: "sor", P: 4, N: 32, Iters: 4, Seed: int64(10 + i)})
		if code != http.StatusServiceUnavailable || !strings.Contains(r.Error, "journal") {
			t.Fatalf("submit %d on a full disk: HTTP %d %q, want 503 journal unavailable", i, code, r.Error)
		}
	}
	if n := s.metrics.breakerRejects.Load(); n != 0 {
		t.Errorf("breaker refused %d submits after the journal refused its probe", n)
	}
}

// A half-open probe cancelled before it runs ends with no verdict; the
// next submit must be admitted. The lone worker is pinned by a job
// admitted before the breaker opened, so the probe is still queued when
// it is cancelled.
func TestBreakerProbeCancelGivesSlotBack(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	blocker := submit(t, ts.URL, RunRequest{Program: "seq", P: 4, N: 64, Iters: 60, Seed: 1})
	deadline := time.Now().Add(10 * time.Second)
	for s.farm.Stats().Running == 0 {
		if time.Now().After(deadline) {
			t.Fatal("blocker never started")
		}
		time.Sleep(2 * time.Millisecond)
	}

	probeBreaker(t, s)
	probe := submit(t, ts.URL, cheapRun())
	var out map[string]string
	if code := doJSON(t, "DELETE", ts.URL+"/v1/runs/"+probe, nil, &out); code != http.StatusOK || out["state"] != stateCancelled {
		t.Fatalf("cancel probe: HTTP %d state %q, want cancelled", code, out["state"])
	}
	// A blocker that finished already would have closed the breaker with
	// its success and hidden a probe slot that was never given back.
	if st, _ := s.breaker.snapshot(); st != breakerHalfOpen {
		t.Fatalf("breaker %s after the probe was cancelled, want half-open", breakerStateName(st))
	}
	next := submit(t, ts.URL, RunRequest{Program: "sor", P: 4, N: 32, Iters: 4, Seed: 2})

	doJSON(t, "DELETE", ts.URL+"/v1/runs/"+next, nil, nil)
	doJSON(t, "DELETE", ts.URL+"/v1/runs/"+blocker, nil, nil)
}

// Shedding tiers: submits go first, then polls; ops are never refused.
func TestShedderTiers(t *testing.T) {
	var depth int64
	sh := newShedder(10, func() int64 { return depth })

	for _, tc := range []struct {
		depth          int64
		submits, polls bool
	}{
		{0, true, true},
		{9, true, true},
		{10, false, true}, // tier 1
		{19, false, true},
		{20, false, false}, // tier 2
		{1000, false, false},
	} {
		depth = tc.depth
		if got := sh.admit(classSubmit); got != tc.submits {
			t.Errorf("depth %d: submit admitted=%v, want %v", tc.depth, got, tc.submits)
		}
		if got := sh.admit(classPoll); got != tc.polls {
			t.Errorf("depth %d: poll admitted=%v, want %v", tc.depth, got, tc.polls)
		}
		if !sh.admit(classOps) {
			t.Errorf("depth %d: ops shed", tc.depth)
		}
	}
	if sh.shed[classOps].Load() != 0 {
		t.Error("ops refusals counted")
	}
	if sh.shed[classSubmit].Load() == 0 || sh.shed[classPoll].Load() == 0 {
		t.Error("submit/poll refusals not counted")
	}
}

// End to end: with MaxQueue=1 and the lone worker pinned, a queued
// backlog sheds submissions with 503 + Retry-After while polls and the
// ops surface keep answering.
func TestLoadSheddingEndToEnd(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, MaxQueue: 1})

	blocker := submit(t, ts.URL, RunRequest{Program: "seq", P: 4, N: 64, Iters: 60, Seed: 1})
	deadline := time.Now().Add(10 * time.Second)
	for s.farm.Stats().Running == 0 {
		if time.Now().After(deadline) {
			t.Fatal("blocker never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	queued := submit(t, ts.URL, RunRequest{Program: "seq", P: 4, N: 64, Iters: 60, Seed: 2})

	// Queue depth is now 1 = MaxQueue: tier 1, submits shed.
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json",
		strings.NewReader(`{"program":"sor","p":4,"n":32,"iters":4,"seed":3}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit at tier 1: HTTP %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed submit missing Retry-After")
	}
	// Polls and ops still answer.
	if code := doJSON(t, "GET", ts.URL+"/v1/runs/"+queued, nil, nil); code != http.StatusOK {
		t.Errorf("poll at tier 1: HTTP %d, want 200", code)
	}
	if code := doJSON(t, "GET", ts.URL+"/healthz", nil, nil); code != http.StatusOK {
		t.Errorf("healthz at tier 1: HTTP %d, want 200", code)
	}
	body := fetchMetrics(t, ts.URL)
	if v := metricValue(t, body, `fxnetd_shed_total{class="submit"}`); v < 1 {
		t.Errorf("shed counter = %g, want >= 1", v)
	}
	if v := metricValue(t, body, "fxnetd_shed_tier"); v != 1 {
		t.Errorf("shed tier = %g, want 1", v)
	}

	doJSON(t, "DELETE", ts.URL+"/v1/runs/"+queued, nil, nil)
	doJSON(t, "DELETE", ts.URL+"/v1/runs/"+blocker, nil, nil)
}

// TestShedDepthCountsJobOnStart: a job counts toward the shed depth as
// soon as start returns (the 202 follows), before its goroutine reaches
// the farm. Two jobs are submitted back to back with no wait; at
// GOMAXPROCS 1 neither goroutine has run when the depth is read, and
// 2 = 2 × MaxQueue is tier 2.
func TestShedDepthCountsJobOnStart(t *testing.T) {
	s, _ := newTestServer(t, Options{Workers: 1, MaxQueue: 1})
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	a := s.jobs.start(s.jobs.allocID(), core.RunConfig{Program: "seq", P: 4, Seed: 1}, true, 0)
	b := s.jobs.start(s.jobs.allocID(), core.RunConfig{Program: "seq", P: 4, Seed: 2}, true, 0)
	depth, tier := s.shedder.queue(), s.shedder.tier()
	for _, j := range []*job{a, b} {
		j.cancel()
		<-j.done
	}
	if depth != 2 || tier != shedPolls {
		t.Errorf("queue depth %d, tier %d with two jobs just started: want 2, %d", depth, tier, shedPolls)
	}
}

// Liveness vs readiness: /healthz answers 200 even when /readyz says
// not-ready (draining), and readiness reports its reason.
func TestReadyzDrainSplit(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})

	var rz struct {
		Ready  bool   `json:"ready"`
		Reason string `json:"reason"`
	}
	if code := doJSON(t, "GET", ts.URL+"/readyz", nil, &rz); code != http.StatusOK || !rz.Ready {
		t.Fatalf("fresh node: /readyz HTTP %d ready=%v", code, rz.Ready)
	}

	s.BeginDrain()
	if code := doJSON(t, "GET", ts.URL+"/readyz", nil, &rz); code != http.StatusServiceUnavailable {
		t.Errorf("draining node: /readyz HTTP %d, want 503", code)
	}
	if rz.Reason != "draining" {
		t.Errorf("readyz reason = %q, want draining", rz.Reason)
	}
	// Liveness is unaffected: the process is healthy, just not taking work.
	var hz struct {
		Status string `json:"status"`
	}
	if code := doJSON(t, "GET", ts.URL+"/healthz", nil, &hz); code != http.StatusOK {
		t.Errorf("draining node: /healthz HTTP %d, want 200", code)
	}
	if hz.Status != "draining" {
		t.Errorf("healthz status = %q", hz.Status)
	}
}

// Drain blocks on in-flight streaming responses and releases the moment
// the last one ends.
func TestDrainWaitsForStreams(t *testing.T) {
	s, _ := newTestServer(t, Options{Workers: 1})

	end := s.streamBegin()
	s.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	if err := s.Drain(ctx); err == nil {
		t.Fatal("drain returned with a stream still in flight")
	}
	cancel()

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- s.Drain(ctx)
	}()
	time.Sleep(20 * time.Millisecond)
	end()
	if err := <-done; err != nil {
		t.Fatalf("drain after stream ended: %v", err)
	}
}

// Two overlapping streams: drain waits for both; ending one is not
// enough.
func TestDrainWaitsForAllStreams(t *testing.T) {
	s, _ := newTestServer(t, Options{Workers: 1})
	end1 := s.streamBegin()
	end2 := s.streamBegin()
	s.BeginDrain()

	end1()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	if err := s.Drain(ctx); err == nil {
		t.Fatal("drain returned with one stream still in flight")
	}
	cancel()
	end2()
	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	if err := s.Drain(ctx2); err != nil {
		t.Fatalf("drain after both ended: %v", err)
	}
}
