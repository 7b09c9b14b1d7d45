package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"fxnet/internal/trace"
)

// newTestServer builds a quiet server plus its HTTP front end.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// doJSON performs a request with an optional JSON body and decodes the
// JSON response into out (when non-nil).
func doJSON(t *testing.T, method, url string, body, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: decode %q: %v", method, url, raw, err)
		}
	}
	return resp.StatusCode
}

// waitState polls a run until it reaches a terminal state.
func waitState(t *testing.T, base, id string) statusJSON {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var st statusJSON
		if code := doJSON(t, "GET", base+"/v1/runs/"+id, nil, &st); code != http.StatusOK {
			t.Fatalf("status %s: HTTP %d", id, code)
		}
		if st.State != stateQueued {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("run %s stuck in %s", id, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// cheapRun is a sub-millisecond configuration for end-to-end plumbing.
func cheapRun() RunRequest {
	return RunRequest{Program: "sor", P: 4, N: 32, Iters: 4, Seed: 1}
}

func submit(t *testing.T, base string, req RunRequest) string {
	t.Helper()
	var acc map[string]string
	if code := doJSON(t, "POST", base+"/v1/runs", req, &acc); code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	if acc["id"] == "" || acc["key"] == "" {
		t.Fatalf("submit: incomplete accept payload %v", acc)
	}
	return acc["id"]
}

// metricValue extracts one sample from Prometheus text exposition.
func metricValue(t *testing.T, body, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			var v float64
			if _, err := fmt.Sscanf(rest, "%g", &v); err != nil {
				t.Fatalf("metric %s: parse %q: %v", name, rest, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found", name)
	return 0
}

func fetchMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: HTTP %d", resp.StatusCode)
	}
	return string(b)
}

func TestRunLifecycleAndDedup(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2, Memoize: true})

	id := submit(t, ts.URL, cheapRun())
	st := waitState(t, ts.URL, id)
	if st.State != stateDone {
		t.Fatalf("state = %s (err %q), want done", st.State, st.Error)
	}
	if st.Result == nil || st.Result.Packets == 0 {
		t.Fatalf("done run has no result summary: %+v", st)
	}

	// The identical configuration resubmitted must not execute a second
	// simulation: memoization answers it.
	id2 := submit(t, ts.URL, cheapRun())
	st2 := waitState(t, ts.URL, id2)
	if st2.State != stateDone {
		t.Fatalf("dup state = %s, want done", st2.State)
	}
	if !st2.Deduped {
		t.Errorf("duplicate submission not marked deduped: %+v", st2)
	}
	if st2.Key != st.Key {
		t.Errorf("same config, different keys: %s vs %s", st.Key, st2.Key)
	}
	body := fetchMetrics(t, ts.URL)
	if got := metricValue(t, body, "fxnetd_farm_executed_total"); got != 1 {
		t.Errorf("fxnetd_farm_executed_total = %g, want 1", got)
	}
	if got := metricValue(t, body, "fxnetd_farm_deduped_total"); got != 1 {
		t.Errorf("fxnetd_farm_deduped_total = %g, want 1", got)
	}
}

func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	for name, req := range map[string]RunRequest{
		"unknown program": {Program: "nope"},
		"bad loss":        {Program: "sor", Loss: 1.5},
		"bad faults":      {Program: "sor", Faults: "gibberish"},
		"bad topology":    {Program: "sor", Topology: "lan0:0-1,lan0:2-3"},
		// Accepted once, then a makeslice panic in a farm goroutine took
		// the daemon down.
		"negative p":     {Program: "sor", P: -1, N: 32, Iters: 2},
		"negative n":     {Program: "sor", N: -5, Iters: 2},
		"negative iters": {Program: "sor", N: 32, Iters: -2},
	} {
		var e map[string]string
		if code := doJSON(t, "POST", ts.URL+"/v1/runs", req, &e); code != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", name, code)
		} else if e["error"] == "" {
			t.Errorf("%s: no error message", name)
		}
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/runs/r-99999999", nil, nil); code != http.StatusNotFound {
		t.Errorf("unknown run: HTTP %d, want 404", code)
	}
}

func TestSubmitTopologyRun(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	req := cheapRun()
	req.Topology = "lan0:0-1,lan1:2-3"
	st := waitState(t, ts.URL, submit(t, ts.URL, req))
	if st.State != stateDone {
		t.Fatalf("state = %s (%s)", st.State, st.Error)
	}
	if st.Result == nil || st.Result.Packets == 0 {
		t.Fatal("topology run produced no packets")
	}
	// The topology participates in the cache key: the same run without
	// one must not collide.
	var accPlain, accTopo map[string]string
	doJSON(t, "POST", ts.URL+"/v1/runs", cheapRun(), &accPlain)
	doJSON(t, "POST", ts.URL+"/v1/runs", req, &accTopo)
	if accPlain["key"] == accTopo["key"] {
		t.Error("topology did not change the run key")
	}
}

func TestTraceStreamNDJSONAndBinary(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	id := submit(t, ts.URL, cheapRun())
	st := waitState(t, ts.URL, id)
	if st.State != stateDone {
		t.Fatalf("state = %s", st.State)
	}

	resp, err := http.Get(ts.URL + "/v1/runs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		t.Fatal("no header line")
	}
	var head traceHeaderJSON
	if err := json.Unmarshal(sc.Bytes(), &head); err != nil {
		t.Fatalf("header: %v", err)
	}
	if head.Packets != st.Result.Packets {
		t.Errorf("header packets %d != status packets %d", head.Packets, st.Result.Packets)
	}
	lines := 0
	for sc.Scan() {
		var p tracePacketJSON
		if err := json.Unmarshal(sc.Bytes(), &p); err != nil {
			t.Fatalf("packet line %d: %v", lines, err)
		}
		lines++
	}
	if lines != head.Packets {
		t.Errorf("streamed %d packet lines, header said %d", lines, head.Packets)
	}

	// The binary format round-trips through the trace codec.
	resp2, err := http.Get(ts.URL + "/v1/runs/" + id + "/trace?format=bin")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	tr, err := trace.ReadBinary(resp2.Body)
	if err != nil {
		t.Fatalf("binary trace: %v", err)
	}
	if tr.Len() != head.Packets {
		t.Errorf("binary trace has %d packets, want %d", tr.Len(), head.Packets)
	}

	// Spectrum stream: header plus one line per bin, all valid JSON.
	resp3, err := http.Get(ts.URL + "/v1/runs/" + id + "/spectrum")
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	sc3 := bufio.NewScanner(resp3.Body)
	sc3.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc3.Scan() {
		t.Fatal("no spectrum header")
	}
	var sh spectrumHeaderJSON
	if err := json.Unmarshal(sc3.Bytes(), &sh); err != nil {
		t.Fatalf("spectrum header: %v", err)
	}
	bins := 0
	for sc3.Scan() {
		var b spectrumBinJSON
		if err := json.Unmarshal(sc3.Bytes(), &b); err != nil {
			t.Fatalf("spectrum bin %d: %v", bins, err)
		}
		bins++
	}
	if bins != sh.Bins {
		t.Errorf("streamed %d bins, header said %d", bins, sh.Bins)
	}
}

func TestTraceConflictBeforeDone(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	// Occupy the single worker so the second run stays queued.
	blocker := submit(t, ts.URL, RunRequest{Program: "seq", P: 4, N: 64, Iters: 60, Seed: 1})
	queued := submit(t, ts.URL, RunRequest{Program: "seq", P: 4, N: 64, Iters: 60, Seed: 2})
	if code := doJSON(t, "GET", ts.URL+"/v1/runs/"+queued+"/trace", nil, nil); code != http.StatusConflict {
		t.Errorf("trace of queued run: HTTP %d, want 409", code)
	}
	// Cancel both so the test does not wait out the simulations.
	doJSON(t, "DELETE", ts.URL+"/v1/runs/"+queued, nil, nil)
	doJSON(t, "DELETE", ts.URL+"/v1/runs/"+blocker, nil, nil)
}

func TestCancelQueuedRun(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	blocker := submit(t, ts.URL, RunRequest{Program: "seq", P: 4, N: 64, Iters: 60, Seed: 1})

	// Wait until the blocker actually holds the worker slot, so the next
	// submission is provably queued behind it.
	deadline := time.Now().Add(10 * time.Second)
	for s.farm.Stats().Running == 0 {
		if time.Now().After(deadline) {
			t.Fatal("blocker never started")
		}
		time.Sleep(2 * time.Millisecond)
	}

	queued := submit(t, ts.URL, RunRequest{Program: "seq", P: 4, N: 64, Iters: 60, Seed: 2})
	var out map[string]string
	if code := doJSON(t, "DELETE", ts.URL+"/v1/runs/"+queued, nil, &out); code != http.StatusOK {
		t.Fatalf("cancel: HTTP %d", code)
	}
	if out["state"] != stateCancelled {
		t.Errorf("cancelled run state = %q, want cancelled", out["state"])
	}
	doJSON(t, "DELETE", ts.URL+"/v1/runs/"+blocker, nil, nil)
	if st := waitState(t, ts.URL, queued); st.State != stateCancelled {
		t.Errorf("state after cancel = %s", st.State)
	}
	if got := s.farm.Stats().Executed; got > 1 {
		t.Errorf("executed %d simulations, cancelled job should not have run", got)
	}
}

func TestNegotiateAdmitRelease(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})

	// Dry run: an offer with no commitment.
	var dry struct {
		Offer OfferJSON `json:"offer"`
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/qos/negotiate",
		NegotiateRequest{Program: "sor", DryRun: true}, &dry); code != http.StatusOK {
		t.Fatalf("dry negotiate: HTTP %d", code)
	}
	if dry.Offer.ID != 0 || dry.Offer.P < 1 {
		t.Errorf("dry offer = %+v", dry.Offer)
	}

	// Admit twice; both get distinct IDs and show up in listings.
	var a, b struct {
		Offer OfferJSON `json:"offer"`
	}
	doJSON(t, "POST", ts.URL+"/v1/qos/negotiate", NegotiateRequest{Program: "sor", Client: "alice"}, &a)
	doJSON(t, "POST", ts.URL+"/v1/qos/negotiate", NegotiateRequest{Program: "2dfft", Client: "bob"}, &b)
	if a.Offer.ID == 0 || b.Offer.ID == 0 || a.Offer.ID == b.Offer.ID {
		t.Fatalf("admission IDs %d, %d", a.Offer.ID, b.Offer.ID)
	}
	var list struct {
		Commitments []OfferJSON `json:"commitments"`
		Committed   float64     `json:"committed_bps"`
	}
	doJSON(t, "GET", ts.URL+"/v1/qos/commitments", nil, &list)
	if len(list.Commitments) != 2 || list.Committed <= 0 {
		t.Fatalf("commitments = %+v", list)
	}

	// Release frees exactly one; the second release of the same ID 404s.
	url := fmt.Sprintf("%s/v1/qos/commitments/%d", ts.URL, a.Offer.ID)
	if code := doJSON(t, "DELETE", url, nil, nil); code != http.StatusOK {
		t.Fatalf("release: HTTP %d", code)
	}
	if code := doJSON(t, "DELETE", url, nil, nil); code != http.StatusNotFound {
		t.Errorf("double release: HTTP %d, want 404", code)
	}
	doJSON(t, "GET", ts.URL+"/v1/qos/commitments", nil, &list)
	if len(list.Commitments) != 1 {
		t.Errorf("after release: %d commitments, want 1", len(list.Commitments))
	}

	// Validation errors are 400, not 409.
	if code := doJSON(t, "POST", ts.URL+"/v1/qos/negotiate", NegotiateRequest{}, nil); code != http.StatusBadRequest {
		t.Errorf("empty negotiate: HTTP %d, want 400", code)
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/qos/negotiate",
		NegotiateRequest{Program: "airshed"}, nil); code != http.StatusBadRequest {
		t.Errorf("uncharacterized program: HTTP %d, want 400", code)
	}
}

func TestNegotiateCapacityExhaustion(t *testing.T) {
	// Offers shrink as capacity is committed, so a well-formed request is
	// refused with 409 only once the broker is essentially out of
	// capacity. Admit until that happens, then release and re-admit.
	_, ts := newTestServer(t, Options{Workers: 1, CapacityBps: 3500})
	var ids []int
	exhausted := false
	for i := 0; i < 200; i++ {
		var a struct {
			Offer OfferJSON `json:"offer"`
		}
		code := doJSON(t, "POST", ts.URL+"/v1/qos/negotiate", NegotiateRequest{Program: "sor"}, &a)
		if code == http.StatusConflict {
			exhausted = true
			break
		}
		if code != http.StatusOK {
			t.Fatalf("negotiate %d: HTTP %d", i, code)
		}
		ids = append(ids, a.Offer.ID)
	}
	if !exhausted {
		t.Fatal("broker never exhausted after 200 admissions")
	}
	for _, id := range ids {
		if code := doJSON(t, "DELETE", fmt.Sprintf("%s/v1/qos/commitments/%d", ts.URL, id), nil, nil); code != http.StatusOK {
			t.Fatalf("release %d: HTTP %d", id, code)
		}
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/qos/negotiate", NegotiateRequest{Program: "sor"}, nil); code != http.StatusOK {
		t.Errorf("negotiate after full release: HTTP %d, want 200", code)
	}
}

func TestClientThrottle(t *testing.T) {
	s, err := New(Options{Workers: 1, ClientLimit: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Drive the middleware with a handler we can hold open, so the
	// limiter's in-flight window is deterministic.
	entered := make(chan struct{}, 4)
	release := make(chan struct{})
	h := s.instrument("test", true, classOps, func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		<-release
	})
	ts := httptest.NewServer(h)
	defer ts.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		req, _ := http.NewRequest("GET", ts.URL, nil)
		req.Header.Set("X-Client-ID", "alice")
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-entered

	// Same client: rejected with 429 + Retry-After.
	req, _ := http.NewRequest("GET", ts.URL, nil)
	req.Header.Set("X-Client-ID", "alice")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("same client: HTTP %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	// A different client is unaffected by alice's in-flight request.
	req2, _ := http.NewRequest("GET", ts.URL, nil)
	req2.Header.Set("X-Client-ID", "bob")
	done := make(chan int, 1)
	go func() {
		resp2, err := http.DefaultClient.Do(req2)
		if err != nil {
			done <- -1
			return
		}
		resp2.Body.Close()
		done <- resp2.StatusCode
	}()
	close(release)
	if code := <-done; code != http.StatusOK {
		t.Errorf("other client: HTTP %d, want 200", code)
	}
	wg.Wait()
}

func TestHealthzAndDrain(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	var hz struct {
		Status  string `json:"status"`
		Version string `json:"version"`
	}
	if code := doJSON(t, "GET", ts.URL+"/healthz", nil, &hz); code != http.StatusOK {
		t.Fatalf("/healthz: HTTP %d", code)
	}
	if hz.Status != "ok" || !strings.HasPrefix(hz.Version, "fxnet") {
		t.Errorf("healthz = %+v", hz)
	}

	id := submit(t, ts.URL, cheapRun())
	s.BeginDrain()

	// Draining: new submissions refused, polling still works.
	if code := doJSON(t, "POST", ts.URL+"/v1/runs", cheapRun(), nil); code != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: HTTP %d, want 503", code)
	}
	doJSON(t, "GET", ts.URL+"/healthz", nil, &hz)
	if hz.Status != "draining" {
		t.Errorf("healthz status = %q, want draining", hz.Status)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if st := waitState(t, ts.URL, id); st.State != stateDone {
		t.Errorf("in-flight run after drain: %s, want done", st.State)
	}
}

// logBuf is a goroutine-safe log sink a test can read while handlers
// are still writing to it.
type logBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *logBuf) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *logBuf) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// A well-formed inbound X-Request-ID is adopted and anything else is
// replaced by a freshly minted one. Either way the response carries the
// ID and the request's log line names it exactly once; a malformed
// header is never echoed or logged.
func TestRequestIDsAssigned(t *testing.T) {
	var logs logBuf
	_, ts := newTestServer(t, Options{Workers: 1, Memoize: true, Log: log.New(&logs, "", 0)})
	body, err := json.Marshal(cheapRun())
	if err != nil {
		t.Fatal(err)
	}
	minted := regexp.MustCompile(`^[0-9a-f]{8}$`)
	for _, tc := range []struct {
		name, inbound string
		adopted       bool
	}{
		{"adopted", "trace-me_7.a", true},
		{"none", "", false},
		{"spaces", "two words", false},
		{"markup", `<b>"x"</b>`, false},
		{"too long", strings.Repeat("a", 65), false},
	} {
		hr, err := http.NewRequest("POST", ts.URL+"/v1/runs", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if tc.inbound != "" {
			hr.Header.Set("X-Request-ID", tc.inbound)
		}
		resp, err := http.DefaultClient.Do(hr)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s: HTTP %d, want 202", tc.name, resp.StatusCode)
		}
		id := resp.Header.Get("X-Request-ID")
		if tc.adopted && id != tc.inbound {
			t.Errorf("%s: response carries %q, want the inbound %q", tc.name, id, tc.inbound)
		}
		if !tc.adopted && !minted.MatchString(id) {
			t.Errorf("%s: response carries %q, want a freshly minted ID", tc.name, id)
		}
		// The log line follows the response; give the handler a moment.
		line := "req=" + id + " "
		deadline := time.Now().Add(5 * time.Second)
		for !strings.Contains(logs.String(), line) && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := strings.Count(logs.String(), line); n != 1 {
			t.Errorf("%s: logged %q %d times, want once:\n%s", tc.name, line, n, logs.String())
		}
		if !tc.adopted && tc.inbound != "" && strings.Contains(logs.String(), tc.inbound) {
			t.Errorf("%s: logged the malformed header %q", tc.name, tc.inbound)
		}
	}
}
