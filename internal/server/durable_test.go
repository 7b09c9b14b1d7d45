package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"fxnet/internal/durable"
)

// A model key that is not a single file-name element is refused with a
// 400 before it reaches the catalog — and the catalog's store refuses it
// again underneath. At the parent commit this request read
// victim.fxmodel from above the catalog directory and, failing to decode
// it, moved it into <cache>/models/corrupt/.
func TestModelKeyTraversalRefused(t *testing.T) {
	root := t.TempDir()
	cacheDir := filepath.Join(root, "srv", "cache")
	victim := filepath.Join(root, "victim.fxmodel")
	if err := os.WriteFile(victim, []byte("someone else's file"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Options{Workers: 1, CacheDir: cacheDir})

	for _, path := range []string{"..%2F..%2F..%2Fvictim", "..%2f..%2f..%2fvictim", "a%5Cb"} {
		if code := doJSON(t, "GET", ts.URL+"/v1/models/"+path, nil, nil); code != http.StatusBadRequest {
			t.Errorf("GET /v1/models/%s: HTTP %d, want 400", path, code)
		}
	}
	if _, ok := s.catalog.Get("../../../victim"); ok {
		t.Error("catalog served a key outside its directory")
	}
	if got, err := os.ReadFile(victim); err != nil || string(got) != "someone else's file" {
		t.Errorf("file above the catalog directory was touched: %q, %v", got, err)
	}
	if ents, err := os.ReadDir(filepath.Join(cacheDir, "models", "corrupt")); err == nil && len(ents) != 0 {
		t.Errorf("corrupt/ is not empty: %v", ents)
	}
	if v := metricValue(t, fetchMetrics(t, ts.URL), "fxnetd_catalog_quarantined_total"); v != 0 {
		t.Errorf("fxnetd_catalog_quarantined_total = %g, want 0", v)
	}
}

// spectrumSHA runs a stream-analysis job to completion and hashes its
// /spectrum response.
func spectrumSHA(t *testing.T, base string, req RunRequest) [sha256.Size]byte {
	t.Helper()
	req.Analysis = "stream"
	id := submit(t, base, req)
	if st := waitState(t, base, id); st.State != stateDone {
		t.Fatalf("run %s: %s (%s)", id, st.State, st.Error)
	}
	resp, err := http.Get(base + "/v1/runs/" + id + "/spectrum")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("spectrum of %s: HTTP %d, %v", id, resp.StatusCode, err)
	}
	return sha256.Sum256(body)
}

// A daemon whose cache and catalog disk is full is slower next time, not
// wrong or down now: a cold job and a fit job finish with the answers a
// healthy daemon gives, /readyz stays 200, nothing half-written is left
// in the cache, and the store-failure counters say what happened.
func TestFullCacheDiskStillServes(t *testing.T) {
	_, healthy := newTestServer(t, Options{Workers: 2, CacheDir: t.TempDir()})
	want := spectrumSHA(t, healthy.URL, fitRun())

	cacheDir := t.TempDir()
	full := &durable.FaultFS{FS: durable.OSFS{}, WriteBudget: 0}
	_, ts := newTestServer(t, Options{Workers: 2, CacheDir: cacheDir, FS: full})
	if got := spectrumSHA(t, ts.URL, fitRun()); got != want {
		t.Error("spectrum from the full-disk daemon differs from the healthy daemon's")
	}
	m := fetchMetrics(t, ts.URL)
	if v := metricValue(t, m, "fxnetd_cache_store_failures_total"); v != 1 {
		t.Errorf("fxnetd_cache_store_failures_total = %g, want 1", v)
	}
	if v := metricValue(t, m, "fxnetd_cache_entries"); v != 0 {
		t.Errorf("fxnetd_cache_entries = %g, want 0", v)
	}

	// The fit re-runs (nothing was cached), stores neither spectrum nor
	// model, and still answers with the model.
	id := submitFit(t, ts.URL, FitRequest{RunRequest: fitRun()})
	st := waitState(t, ts.URL, id)
	if st.State != stateDone || st.Model == nil || st.Model.Key != st.Key {
		t.Fatalf("fit on a full disk: state %s (%s), model %+v", st.State, st.Error, st.Model)
	}
	m = fetchMetrics(t, ts.URL)
	if v := metricValue(t, m, "fxnetd_catalog_store_failures_total"); v != 1 {
		t.Errorf("fxnetd_catalog_store_failures_total = %g, want 1", v)
	}
	if v := metricValue(t, m, "fxnetd_catalog_entries"); v != 0 {
		t.Errorf("fxnetd_catalog_entries = %g, want 0", v)
	}
	if v := metricValue(t, m, "fxnetd_cache_store_failures_total"); v != 2 {
		t.Errorf("fxnetd_cache_store_failures_total after the fit's run = %g, want 2", v)
	}
	if code := doJSON(t, "GET", ts.URL+"/readyz", nil, nil); code != http.StatusOK {
		t.Errorf("/readyz on a full cache disk: HTTP %d, want 200", code)
	}
	for _, dir := range []string{cacheDir, filepath.Join(cacheDir, "models")} {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			if !e.IsDir() {
				t.Errorf("full-disk daemon left %s in %s", e.Name(), dir)
			}
		}
	}
}

// flipMiddleByte rots every file matching pattern by flipping one bit
// half way in, and reports how many it rotted.
func flipMiddleByte(t *testing.T, pattern string) int {
	t.Helper()
	paths, err := filepath.Glob(pattern)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		b[len(b)/2] ^= 0x01
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return len(paths)
}

// A cache or catalog entry that rots on disk costs a re-execution or a
// refit, never a wrong answer: a daemon restarted over a cache whose run,
// spectrum and model entries each had a bit flipped answers with the
// bytes the first daemon gave, moves the evidence to corrupt/, and counts
// each kind in /metrics.
func TestCorruptEntriesAreQuarantined(t *testing.T) {
	cacheDir := t.TempDir()
	traceOf := func(base, id string) []byte {
		t.Helper()
		resp, err := http.Get(base + "/v1/runs/" + id + "/trace?format=bin")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("trace of %s: HTTP %d, %v", id, resp.StatusCode, err)
		}
		return b
	}
	// run, spectrum and model answer the three entry kinds' requests on
	// the daemon at base.
	run := func(base string) []byte {
		id := submit(t, base, cheapRun())
		if st := waitState(t, base, id); st.State != stateDone {
			t.Fatalf("run %s: %s (%s)", id, st.State, st.Error)
		}
		return traceOf(base, id)
	}
	model := func(base string) statusJSON {
		st := waitState(t, base, submitFit(t, base, FitRequest{RunRequest: fitRun()}))
		if st.State != stateDone || st.Model == nil {
			t.Fatalf("fit: state %s (%s)", st.State, st.Error)
		}
		return st
	}

	_, first := newTestServer(t, Options{Workers: 2, CacheDir: cacheDir})
	wantTrace, wantSpec, wantModel := run(first.URL), spectrumSHA(t, first.URL, fitRun()), model(first.URL)

	for _, pattern := range []string{"*.fxrun", "*.fxspec", filepath.Join("models", "*.fxmodel")} {
		if n := flipMiddleByte(t, filepath.Join(cacheDir, pattern)); n != 1 {
			t.Fatalf("%d %s entries in the cache, want 1", n, pattern)
		}
	}

	_, ts := newTestServer(t, Options{Workers: 2, CacheDir: cacheDir})
	if got := run(ts.URL); !bytes.Equal(got, wantTrace) {
		t.Error("trace re-executed after a corrupt run entry differs")
	}
	if got := spectrumSHA(t, ts.URL, fitRun()); got != wantSpec {
		t.Error("spectrum re-executed after a corrupt spectrum entry differs")
	}
	if got := model(ts.URL); !reflect.DeepEqual(got.Model, wantModel.Model) {
		t.Errorf("refit after a corrupt model entry differs:\n got %+v\nwant %+v", got.Model, wantModel.Model)
	}

	m := fetchMetrics(t, ts.URL)
	for name, want := range map[string]float64{
		"fxnetd_cache_quarantined_total":                    2,
		`fxnetd_cache_quarantined_kind_total{kind="run"}`:   1,
		`fxnetd_cache_quarantined_kind_total{kind="spec"}`:  1,
		`fxnetd_cache_quarantined_kind_total{kind="model"}`: 1,
		"fxnetd_catalog_quarantined_total":                  1,
	} {
		if v := metricValue(t, m, name); v != want {
			t.Errorf("%s = %g, want %g", name, v, want)
		}
	}
	for _, dir := range []string{cacheDir, filepath.Join(cacheDir, "models")} {
		if ents, err := os.ReadDir(filepath.Join(dir, "corrupt")); err != nil || len(ents) == 0 {
			t.Errorf("no evidence in %s/corrupt: %v", dir, err)
		}
	}
}

// A journal whose fsync fails cannot promise durability, so the node
// fails closed and stays live: a submit and an admission are refused
// with 503 (the grant rolled back, so the ledger never holds an
// admission the journal does not), the journal goes sticky, and
// /healthz and /metrics say so.
func TestFsyncFailureFailsClosed(t *testing.T) {
	ffs := &durable.FaultFS{FS: durable.OSFS{}, WriteBudget: -1}
	s, err := New(Options{Workers: 1, JournalPath: filepath.Join(t.TempDir(), "journal.wal"), FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Recover(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); s.Close() }()

	ffs.SyncErr = errors.New("injected fsync failure")
	var e map[string]string
	if code := doJSON(t, "POST", ts.URL+"/v1/runs", cheapRun(), &e); code != http.StatusServiceUnavailable || !strings.Contains(e["error"], "journal") {
		t.Errorf("submit with a failing fsync: HTTP %d %q, want 503 journal unavailable", code, e["error"])
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/qos/negotiate", NegotiateRequest{Program: "sor", Client: "x"}, &e); code != http.StatusServiceUnavailable {
		t.Errorf("admission with a failing fsync: HTTP %d, want 503", code)
	}
	var ledger struct {
		Commitments []OfferJSON `json:"commitments"`
	}
	if doJSON(t, "GET", ts.URL+"/v1/qos/commitments", nil, &ledger); len(ledger.Commitments) != 0 {
		t.Errorf("refused admission left in the ledger: %+v", ledger.Commitments)
	}
	var health struct {
		Status  string         `json:"status"`
		Journal map[string]any `json:"journal"`
	}
	if code := doJSON(t, "GET", ts.URL+"/healthz", nil, &health); code != http.StatusOK || health.Status != "ok" {
		t.Errorf("/healthz: HTTP %d status %q, want a live node", code, health.Status)
	}
	if msg, _ := health.Journal["error"].(string); !strings.Contains(msg, "injected fsync failure") {
		t.Errorf("/healthz journal error = %q, want the fsync failure", msg)
	}
	if v := metricValue(t, fetchMetrics(t, ts.URL), "fxnetd_journal_append_failures_total"); v != 2 {
		t.Errorf("fxnetd_journal_append_failures_total = %g, want 2", v)
	}
}
