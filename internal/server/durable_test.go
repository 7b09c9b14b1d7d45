package server

import (
	"crypto/sha256"
	"io"
	"net/http"
	"os"
	"path/filepath"
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
