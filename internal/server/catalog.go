package server

// The /v1/models surface: the fitted-model catalog exposed over HTTP.
// Fit jobs ride the existing run queue — same journal, same idempotency,
// same recovery — because a fit IS a run plus a few milliseconds of
// spectral fitting; only the result differs (a catalog entry instead of
// a trace). GET endpoints answer straight from the catalog.

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"

	"fxnet/internal/catalog"
	"fxnet/internal/durable"
	"fxnet/internal/farm"
)

var (
	errCatalogDisabled     = errors.New("model catalog disabled: start fxnetd with -cache or -catalog")
	errCatalogNeedsProgram = errors.New("source=catalog requires program")
)

// FitRequest is the wire form of POST /v1/models/fit: a run
// configuration plus the fit's spike budget.
type FitRequest struct {
	RunRequest
	// Spikes is the spike budget k; <= 0 selects the default (8).
	Spikes int `json:"spikes,omitempty"`
}

// catalogEnabled guards the /v1/models surface.
func (s *Server) catalogEnabled(w http.ResponseWriter) bool {
	if s.catalog == nil {
		writeErr(w, http.StatusServiceUnavailable, "%v", errCatalogDisabled)
		return false
	}
	return true
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	if !s.catalogEnabled(w) {
		return
	}
	entries, err := s.catalog.List()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "catalog list: %v", err)
		return
	}
	program := r.URL.Query().Get("program")
	wantP := 0
	if v := r.URL.Query().Get("p"); v != "" {
		p, err := strconv.Atoi(v)
		if err != nil || p < 0 {
			writeErr(w, http.StatusBadRequest, "bad p %q", v)
			return
		}
		wantP = p
	}
	models := []catalog.EntryJSON{}
	for _, e := range entries {
		if program != "" && e.Program != program {
			continue
		}
		if wantP != 0 && e.P != wantP {
			continue
		}
		models = append(models, catalog.ToJSON(e))
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"models": models,
		"count":  len(models),
	})
}

func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	if !s.catalogEnabled(w) {
		return
	}
	key := r.PathValue("key")
	if !durable.ValidKey(key) {
		writeErr(w, http.StatusBadRequest, "bad model key %q", key)
		return
	}
	e, ok := s.catalog.Get(key)
	if !ok {
		writeErr(w, http.StatusNotFound, "no fitted model %q", key)
		return
	}
	writeJSON(w, http.StatusOK, catalog.ToJSON(e))
}

// handleFit submits an asynchronous fit job through the run submission
// path — gate, idempotency, journal-before-202 — so a crash between the
// acknowledgment and the fit still lands the model after recovery. Fit
// jobs are not routed: they run on the node that received them.
func (s *Server) handleFit(w http.ResponseWriter, r *http.Request) {
	if !s.catalogEnabled(w) {
		return
	}
	var req FitRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if req.Analysis != "" && req.Analysis != "stream" {
		writeErr(w, http.StatusBadRequest, "fit jobs always use the stream pipeline; omit analysis")
		return
	}
	cfg, err := req.config()
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.Spikes <= 0 {
		req.Spikes = catalog.DefaultSpikes
	}
	if !s.admitSubmit(w) {
		return
	}
	s.enqueue(w, r, cfg, submittedRec{Key: farm.Key(cfg), Analysis: "stream", Request: req.RunRequest, Fit: req.Spikes})
}

// catalogProgram resolves a catalog-backed negotiation request.
func (s *Server) catalogProgram(req *NegotiateRequest) (OfferJSON, error) {
	if s.catalog == nil {
		return OfferJSON{}, errCatalogDisabled
	}
	if req.Program == "" {
		return OfferJSON{}, errCatalogNeedsProgram
	}
	prog, err := s.catalog.Program(req.Program)
	if err != nil {
		return OfferJSON{}, err
	}
	return s.broker.negotiateWith(prog, req)
}
