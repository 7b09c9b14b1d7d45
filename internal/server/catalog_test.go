package server

import (
	"net/http"
	"path/filepath"
	"strconv"
	"testing"

	"fxnet/internal/catalog"
)

// fitRun is the smallest configuration whose bandwidth series has
// spectral structure (the 32/4 sizing yields a 3-sample, DC-only series).
func fitRun() RunRequest {
	return RunRequest{Program: "sor", P: 4, N: 64, Iters: 10, Seed: 1}
}

func submitFit(t *testing.T, base string, req FitRequest) string {
	t.Helper()
	var acc map[string]any
	if code := doJSON(t, "POST", base+"/v1/models/fit", req, &acc); code != http.StatusAccepted {
		t.Fatalf("fit submit: HTTP %d (%v)", code, acc)
	}
	id, _ := acc["id"].(string)
	if id == "" {
		t.Fatalf("fit submit: incomplete accept payload %v", acc)
	}
	if acc["analysis"] != "fit" {
		t.Fatalf("fit submit: analysis = %v, want fit", acc["analysis"])
	}
	return id
}

func TestFitJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2, Memoize: true, CacheDir: t.TempDir()})

	id := submitFit(t, ts.URL, FitRequest{RunRequest: fitRun()})
	st := waitState(t, ts.URL, id)
	if st.State != stateDone {
		t.Fatalf("fit job: %s (%s)", st.State, st.Error)
	}
	if st.Analysis != "fit" {
		t.Errorf("analysis = %q, want fit", st.Analysis)
	}
	if st.Model == nil {
		t.Fatal("done fit job has no model")
	}
	if st.Model.Key != st.Key {
		t.Errorf("model key %s != job key %s", st.Model.Key, st.Key)
	}
	if st.Model.Spikes != catalog.DefaultSpikes {
		t.Errorf("spikes = %d, want default %d", st.Model.Spikes, catalog.DefaultSpikes)
	}
	if len(st.Model.Components) == 0 {
		t.Error("fitted model has no components")
	}
	if float64(st.Model.MeanRelErr) > 0.05 {
		t.Errorf("mean relative error %g exceeds 5%%", float64(st.Model.MeanRelErr))
	}

	// The model is now listable and fetchable.
	var list struct {
		Models []catalog.EntryJSON `json:"models"`
		Count  int                 `json:"count"`
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/models?program=sor", nil, &list); code != http.StatusOK {
		t.Fatalf("list: HTTP %d", code)
	}
	if list.Count != 1 || len(list.Models) != 1 || list.Models[0].Key != st.Key {
		t.Fatalf("list = %+v", list)
	}
	var got catalog.EntryJSON
	if code := doJSON(t, "GET", ts.URL+"/v1/models/"+st.Key, nil, &got); code != http.StatusOK {
		t.Fatalf("get: HTTP %d", code)
	}
	if got.Key != st.Key || got.Program != "sor" || got.P != 4 {
		t.Fatalf("get = %+v", got)
	}

	// Unknown key and filtered-out listings.
	if code := doJSON(t, "GET", ts.URL+"/v1/models/deadbeef", nil, nil); code != http.StatusNotFound {
		t.Errorf("get unknown: HTTP %d, want 404", code)
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/models?program=hist", nil, &list); code != http.StatusOK || list.Count != 0 {
		t.Errorf("filtered list: HTTP %d count %d", code, list.Count)
	}

	// A second fit of the same config answers from the catalog.
	id2 := submitFit(t, ts.URL, FitRequest{RunRequest: fitRun()})
	st2 := waitState(t, ts.URL, id2)
	if st2.State != stateDone || !st2.Cached {
		t.Fatalf("warm fit: state=%s cached=%v", st2.State, st2.Cached)
	}

	body := fetchMetrics(t, ts.URL)
	if v := metricValue(t, body, "fxnetd_catalog_enabled"); v != 1 {
		t.Errorf("fxnetd_catalog_enabled = %g", v)
	}
	if v := metricValue(t, body, "fxnetd_catalog_entries"); v != 1 {
		t.Errorf("fxnetd_catalog_entries = %g", v)
	}
	if v := metricValue(t, body, "fxnetd_catalog_bytes"); v <= 0 {
		t.Errorf("fxnetd_catalog_bytes = %g", v)
	}
	if v := metricValue(t, body, "fxnetd_catalog_fits_total"); v != 1 {
		t.Errorf("fxnetd_catalog_fits_total = %g", v)
	}
	if v := metricValue(t, body, "fxnetd_catalog_hits_total"); v < 1 {
		t.Errorf("fxnetd_catalog_hits_total = %g", v)
	}
}

func TestFitDisabledWithoutCatalog(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, Memoize: true})
	if code := doJSON(t, "POST", ts.URL+"/v1/models/fit", FitRequest{RunRequest: fitRun()}, nil); code != http.StatusServiceUnavailable {
		t.Errorf("fit without catalog: HTTP %d, want 503", code)
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/models", nil, nil); code != http.StatusServiceUnavailable {
		t.Errorf("list without catalog: HTTP %d, want 503", code)
	}
	body := fetchMetrics(t, ts.URL)
	if v := metricValue(t, body, "fxnetd_catalog_enabled"); v != 0 {
		t.Errorf("fxnetd_catalog_enabled = %g, want 0", v)
	}
}

func TestFitRejectsBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, Memoize: true, CacheDir: t.TempDir()})
	if code := doJSON(t, "POST", ts.URL+"/v1/models/fit", FitRequest{RunRequest: RunRequest{Program: "nosuch"}}, nil); code != http.StatusBadRequest {
		t.Errorf("unknown program: HTTP %d, want 400", code)
	}
	bad := FitRequest{RunRequest: fitRun()}
	bad.Analysis = "trace"
	if code := doJSON(t, "POST", ts.URL+"/v1/models/fit", bad, nil); code != http.StatusBadRequest {
		t.Errorf("analysis=trace: HTTP %d, want 400", code)
	}
}

func TestCatalogNegotiate(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2, Memoize: true, CacheDir: t.TempDir()})

	// Before any fit: catalog-backed negotiation has nothing to answer from.
	if code := doJSON(t, "POST", ts.URL+"/v1/qos/negotiate",
		NegotiateRequest{Program: "sor", Source: "catalog", DryRun: true}, nil); code != http.StatusBadRequest {
		t.Errorf("catalog negotiate with empty catalog: HTTP %d, want 400", code)
	}

	// Fit two processor counts, then negotiate from the measurements.
	for _, p := range []int{2, 4} {
		req := fitRun()
		req.P = p
		id := submitFit(t, ts.URL, FitRequest{RunRequest: req})
		if st := waitState(t, ts.URL, id); st.State != stateDone {
			t.Fatalf("fit P=%d: %s (%s)", p, st.State, st.Error)
		}
	}
	var out struct {
		Offer OfferJSON `json:"offer"`
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/qos/negotiate",
		NegotiateRequest{Program: "sor", Source: "catalog", Client: "t"}, &out); code != http.StatusOK {
		t.Fatalf("catalog negotiate: HTTP %d", code)
	}
	if out.Offer.P != 2 && out.Offer.P != 4 {
		t.Errorf("negotiated P=%d is not a measured point", out.Offer.P)
	}
	if out.Offer.ID == 0 {
		t.Error("catalog admission not committed")
	}
	if code := doJSON(t, "DELETE", ts.URL+"/v1/qos/commitments/"+strconv.Itoa(out.Offer.ID), nil, nil); code != http.StatusOK {
		t.Errorf("release: HTTP %d", code)
	}

	// Bad source values and shapes.
	if code := doJSON(t, "POST", ts.URL+"/v1/qos/negotiate",
		NegotiateRequest{Program: "sor", Source: "psychic"}, nil); code != http.StatusBadRequest {
		t.Errorf("unknown source: HTTP %d, want 400", code)
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/qos/negotiate",
		NegotiateRequest{Source: "catalog"}, nil); code != http.StatusBadRequest {
		t.Errorf("catalog source without program: HTTP %d, want 400", code)
	}
}

func TestFitJournalRecovery(t *testing.T) {
	dir := t.TempDir()

	// Server A journals a fit submission and completes it.
	a, tsA := journaledServer(t, dir, Options{Workers: 2, Memoize: true})
	id := submitFit(t, tsA.URL, FitRequest{RunRequest: fitRun(), Spikes: 6})
	st := waitState(t, tsA.URL, id)
	if st.State != stateDone || st.Model == nil {
		t.Fatalf("fit on A: %s", st.State)
	}
	crash(a, tsA)

	// Server B recovers: the fit job replays (catalog hit — the model
	// survived on disk) and keeps its identity and spike budget.
	_, tsB := journaledServer(t, dir, Options{Workers: 2, Memoize: true})
	st2 := waitState(t, tsB.URL, id)
	if st2.State != stateDone {
		t.Fatalf("fit after recovery: %s (%s)", st2.State, st2.Error)
	}
	if st2.Analysis != "fit" {
		t.Errorf("recovered analysis = %q, want fit", st2.Analysis)
	}
	if st2.Model == nil {
		t.Fatal("recovered fit job has no model")
	}
	if st2.Model.Spikes != 6 {
		t.Errorf("recovered spike budget = %d, want 6", st2.Model.Spikes)
	}
	if st2.Model.Key != st.Model.Key {
		t.Errorf("recovered model key %s != original %s", st2.Model.Key, st.Model.Key)
	}
	if !st2.Cached {
		t.Error("recovered fit did not answer from the catalog")
	}
}

// TestFitModelSurvivesOnDisk: the .fxmodel file is the durable artifact —
// a fresh catalog over the same directory serves the fitted model with
// no farm at all.
func TestFitModelSurvivesOnDisk(t *testing.T) {
	cacheDir := t.TempDir()
	_, ts := newTestServer(t, Options{Workers: 2, Memoize: true, CacheDir: cacheDir})
	id := submitFit(t, ts.URL, FitRequest{RunRequest: fitRun()})
	st := waitState(t, ts.URL, id)
	if st.State != stateDone {
		t.Fatalf("fit: %s", st.State)
	}
	c, err := catalog.Open(filepath.Join(cacheDir, "models"))
	if err != nil {
		t.Fatal(err)
	}
	e, ok := c.Get(st.Key)
	if !ok {
		t.Fatal("fitted model not on disk")
	}
	if e.Program != "sor" || e.Spikes != catalog.DefaultSpikes {
		t.Fatalf("disk entry = %+v", e)
	}
}
