// Package server is fxnetd's engine: the reproduction's measurement
// pipeline exposed as a long-running HTTP/JSON service. It is the shape
// the paper's §7.3 endgame implies — programs negotiate QoS commitments
// with the network online, and traffic studies are submitted as jobs
// rather than run as one-shot CLIs.
//
// The service has three surfaces:
//
//   - Runs: POST /v1/runs submits a run configuration to an asynchronous
//     job queue backed by the experiment farm (bounded workers,
//     content-addressed disk cache, single-flight dedup); GET polls
//     status; /trace and /spectrum stream results as chunked NDJSON.
//   - QoS: POST /v1/qos/negotiate is the paper's admission-control
//     broker; DELETE /v1/qos/commitments/{id} releases a commitment.
//   - Ops: /metrics (Prometheus text), /healthz, /debug/pprof, request
//     logging, per-client concurrency limits with 429 backpressure, and
//     graceful drain that lets in-flight simulations finish.
//
// Everything is stdlib-only.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"net/http/pprof"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fxnet/internal/airshed"
	"fxnet/internal/analysis"
	"fxnet/internal/catalog"
	"fxnet/internal/core"
	"fxnet/internal/dsp"
	"fxnet/internal/durable"
	"fxnet/internal/farm"
	"fxnet/internal/journal"
	"fxnet/internal/kernels"
	"fxnet/internal/qos"
	"fxnet/internal/version"
)

// Options configures a Server.
type Options struct {
	// Workers bounds concurrent simulations; <= 0 selects GOMAXPROCS.
	Workers int
	// CacheDir enables the content-addressed disk cache; empty disables.
	CacheDir string
	// CatalogDir enables the fitted-model catalog (/v1/models and
	// catalog-backed QoS admission); empty defaults to <CacheDir>/models
	// when a cache is configured, else the catalog is disabled.
	CatalogDir string
	// Memoize keeps completed results in memory (on by default in
	// fxnetd: a service that re-simulates identical submissions is
	// wasting its own point).
	Memoize bool
	// MemoMaxEntries and MemoMaxBytes bound the in-memory memo with an
	// LRU; zero = uncapped on that axis (the historical behavior).
	MemoMaxEntries int
	MemoMaxBytes   int64
	// CapacityBps is the QoS broker's schedulable capacity in bytes/s;
	// <= 0 selects qos.EffectiveCapacityBps.
	CapacityBps float64
	// MaxP bounds the broker's processor search; <= 0 selects 32.
	MaxP int
	// ClientLimit bounds in-flight API requests per client; <= 0
	// disables the limiter.
	ClientLimit int
	// JournalPath enables the durable job journal: every acknowledged
	// submission, terminal job state, and QoS grant/release is fsync'd
	// to this append-only log before the response goes out, and
	// Recover replays it on boot. Empty disables journaling (a purely
	// in-memory node, the pre-crash-safety behavior).
	JournalPath string
	// FS is the one filesystem seam under every durable byte — journal,
	// run cache and model catalog (chaos tests inject slow, full or
	// unsyncable disks); nil selects the real one.
	FS durable.FS
	// MaxQueue is the farm queue depth at which load shedding starts
	// refusing submissions (and, at twice this depth, polls);
	// <= 0 selects 256.
	MaxQueue int
	// Log receives request and lifecycle lines; nil discards them.
	Log *log.Logger
}

// Server is the fxnetd engine. Create with New, mount via Handler. A
// server with a journal configured reports not-ready and refuses
// submissions until Recover replays it; without a journal it is born
// ready.
type Server struct {
	farm    *farm.Farm
	jobs    *jobRegistry
	catalog *catalog.Catalog
	fitter  *catalog.Fitter
	broker  *broker
	metrics *metrics
	limiter *clientLimiter
	breaker *breaker
	shedder *shedder
	logger  *log.Logger
	started time.Time

	journal   *journal.Journal
	jstats    journalStats
	recovered *recoveredState

	idemMu      sync.Mutex
	idem        map[string]string        // idempotency key → started job's ID
	idemPending map[string]chan struct{} // key → closed when its in-flight submit resolves

	streamsMu sync.Mutex
	streams   int
	streamsCh chan struct{} // closed+replaced when streams hits 0

	reqSeq   atomic.Uint64
	draining atomic.Bool
	ready    atomic.Bool
}

// New assembles a server. When a journal is configured its records are
// replayed into a recovered-state snapshot here, but jobs are not
// re-enqueued until Recover — the caller decides when the node starts
// doing work (and can abort mid-replay on SIGTERM).
func New(opts Options) (*Server, error) {
	f, err := farm.Open(opts.FS, opts.CacheDir, farm.Options{
		Workers:        opts.Workers,
		Memoize:        opts.Memoize,
		MemoMaxEntries: opts.MemoMaxEntries,
		MemoMaxBytes:   opts.MemoMaxBytes,
	})
	if err != nil {
		return nil, err
	}
	cap := opts.CapacityBps
	if cap <= 0 {
		cap = qos.EffectiveCapacityBps
	}
	logger := opts.Log
	if logger == nil {
		logger = log.New(io.Discard, "", 0)
	}
	catDir := opts.CatalogDir
	if catDir == "" && opts.CacheDir != "" {
		catDir = filepath.Join(opts.CacheDir, "models")
	}
	var cat *catalog.Catalog
	var fitter *catalog.Fitter
	if catDir != "" {
		c, err := catalog.OpenFS(opts.FS, catDir)
		if err != nil {
			return nil, err
		}
		cat = c
		fitter = catalog.NewFitter(f, c)
	}
	s := &Server{
		farm:        f,
		jobs:        newJobRegistry(f),
		catalog:     cat,
		fitter:      fitter,
		broker:      newBroker(cap, opts.MaxP),
		metrics:     newMetrics(),
		limiter:     newClientLimiter(opts.ClientLimit),
		breaker:     newBreaker(breakerThreshold, breakerCooldown),
		logger:      logger,
		idem:        make(map[string]string),
		idemPending: make(map[string]chan struct{}),
		started:     time.Now(),
	}
	s.jobs.fitter = fitter
	s.shedder = newShedder(opts.MaxQueue, func() int64 { return queueDepth(s.jobs.live.Load(), f.Stats()) })
	s.jobs.onTerminal = func(j *job, state, errMsg string) {
		switch state {
		case stateDone:
			s.breaker.success()
		case stateFailed:
			s.breaker.failure()
		case stateCancelled:
			s.breaker.abandon()
		}
		if err := s.appendJournal(journal.OpTerminal, terminalRec{ID: j.ID, State: state, Error: errMsg}); err != nil {
			// The result is live in memory; at worst the next boot
			// re-runs the job. Log, don't fail the job.
			s.logf("journal: terminal record for %s: %v", j.ID, err)
		}
	}
	if opts.JournalPath != "" {
		rs := newRecoveredState()
		jn, st, err := journal.Open(opts.JournalPath, journal.Options{FS: opts.FS}, rs.fold)
		if err != nil {
			return nil, err
		}
		s.journal = jn
		s.recovered = rs
		s.jstats.replayed.Store(int64(st.Records))
		s.jstats.truncated.Store(st.TruncatedBytes)
		if st.TruncatedBytes > 0 {
			logger.Printf("journal: dropped %d-byte torn tail (%s)", st.TruncatedBytes, st.TruncateReason)
		}
	} else {
		// No journal, nothing to recover: born ready.
		s.ready.Store(true)
	}
	return s, nil
}

func (s *Server) logf(format string, args ...any) { s.logger.Printf(format, args...) }

// Handler returns the service's HTTP mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", s.instrument("runs_submit", true, classSubmit, s.handleSubmit))
	mux.HandleFunc("GET /v1/runs/{id}", s.instrument("runs_status", true, classPoll, s.handleStatus))
	mux.HandleFunc("DELETE /v1/runs/{id}", s.instrument("runs_cancel", true, classPoll, s.handleCancel))
	mux.HandleFunc("GET /v1/runs/{id}/trace", s.instrument("runs_trace", true, classPoll, s.handleTrace))
	mux.HandleFunc("GET /v1/runs/{id}/spectrum", s.instrument("runs_spectrum", true, classPoll, s.handleSpectrum))
	mux.HandleFunc("GET /v1/models", s.instrument("models_list", true, classPoll, s.handleModels))
	mux.HandleFunc("GET /v1/models/{key}", s.instrument("models_get", true, classPoll, s.handleModel))
	mux.HandleFunc("POST /v1/models/fit", s.instrument("models_fit", true, classSubmit, s.handleFit))
	mux.HandleFunc("POST /v1/qos/negotiate", s.instrument("qos_negotiate", true, classSubmit, s.handleNegotiate))
	mux.HandleFunc("GET /v1/qos/commitments", s.instrument("qos_list", true, classPoll, s.handleCommitments))
	mux.HandleFunc("DELETE /v1/qos/commitments/{id}", s.instrument("qos_release", true, classPoll, s.handleRelease))
	mux.HandleFunc("GET /metrics", s.instrument("metrics", false, classOps, s.serveMetrics))
	mux.HandleFunc("GET /healthz", s.instrument("healthz", false, classOps, s.handleHealthz))
	mux.HandleFunc("GET /readyz", s.instrument("readyz", false, classOps, s.handleReadyz))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Workers reports the farm's concurrency bound.
func (s *Server) Workers() int { return s.farm.Workers() }

// Ready reports whether recovery has completed and the node is
// accepting work (the /readyz signal).
func (s *Server) Ready() bool { return s.ready.Load() && !s.draining.Load() }

// BeginDrain flips readiness off and stops accepting new run
// submissions; polling and QoS release remain available so clients can
// collect results and free commitments while the server empties. Load
// balancers watching /readyz stop routing here before requests start
// being refused.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Drain blocks until every submitted job has finished and every
// in-flight streaming response has been written, or ctx expires.
func (s *Server) Drain(ctx context.Context) error {
	if err := s.jobs.drain(ctx); err != nil {
		return err
	}
	return s.drainStreams(ctx)
}

// Close releases the journal (if any). The server is not usable after.
func (s *Server) Close() error {
	if s.journal != nil {
		return s.journal.Close()
	}
	return nil
}

// streamBegin registers an in-flight streaming response; the returned
// func must be called when the stream ends.
func (s *Server) streamBegin() func() {
	s.streamsMu.Lock()
	s.streams++
	if s.streamsCh == nil {
		s.streamsCh = make(chan struct{})
	}
	s.streamsMu.Unlock()
	return func() {
		s.streamsMu.Lock()
		s.streams--
		if s.streams == 0 && s.streamsCh != nil {
			close(s.streamsCh)
			s.streamsCh = nil
		}
		s.streamsMu.Unlock()
	}
}

// drainStreams blocks until no streaming response is in flight. A
// stream that starts during the drain window is still waited for: the
// loop re-checks until it observes zero.
func (s *Server) drainStreams(ctx context.Context) error {
	for {
		s.streamsMu.Lock()
		n, ch := s.streams, s.streamsCh
		s.streamsMu.Unlock()
		if n == 0 {
			return nil
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// writeJSON renders v with a status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeErr renders an error payload.
func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// RunRequest is the wire form of a run submission: the useful subset of
// core.RunConfig, with kernel parameters flattened.
type RunRequest struct {
	Program string `json:"program"`
	// Analysis selects the result pipeline: "trace" (the default) keeps
	// the full packet capture; "stream" folds the characterization during
	// the simulation and never materializes a trace, so the job's memory
	// stays O(bandwidth windows) and /trace answers 409.
	Analysis       string  `json:"analysis,omitempty"`
	P              int     `json:"p,omitempty"`
	N              int     `json:"n,omitempty"`
	Iters          int     `json:"iters,omitempty"`
	Hours          int     `json:"hours,omitempty"` // airshed only
	Seed           int64   `json:"seed,omitempty"`
	BitRate        float64 `json:"bitrate,omitempty"`
	Switched       bool    `json:"switched,omitempty"`
	Nagle          bool    `json:"nagle,omitempty"`
	Loss           float64 `json:"loss,omitempty"`
	CrossKBps      float64 `json:"cross_kbps,omitempty"`
	Guarantee      bool    `json:"guarantee,omitempty"`
	Faults         string  `json:"faults,omitempty"`
	Degrade        bool    `json:"degrade,omitempty"`
	DisableDesched bool    `json:"disable_desched,omitempty"`
	// Topology is a multi-segment topology spec like "lan0:0-1,lan1:2-3";
	// empty keeps the single shared segment.
	Topology string `json:"topology,omitempty"`
}

// analysis validates the analysis selector and names the pipeline.
func (req *RunRequest) analysis() (string, error) {
	switch req.Analysis {
	case "", "trace":
		return "trace", nil
	case "stream":
		return "stream", nil
	default:
		return "", fmt.Errorf("unknown analysis %q (have trace, stream)", req.Analysis)
	}
}

// config builds the run configuration and validates it with the run
// path's own check, so a job the simulator would refuse is a 400 at
// submit — never journaled, queued, and failed later.
func (req *RunRequest) config() (core.RunConfig, error) {
	cfg := core.RunConfig{
		Program:          req.Program,
		P:                req.P,
		Params:           kernels.Params{N: req.N, Iters: req.Iters},
		Seed:             req.Seed,
		BitRate:          req.BitRate,
		Switched:         req.Switched,
		Nagle:            req.Nagle,
		FrameLossProb:    req.Loss,
		CrossTrafficKBps: req.CrossKBps,
		GuaranteeProgram: req.Guarantee,
		FaultScript:      req.Faults,
		Degrade:          req.Degrade,
		DisableDesched:   req.DisableDesched,
	}
	if req.Topology != "" {
		topo, err := core.ParseTopology(req.Topology)
		if err != nil {
			return core.RunConfig{}, fmt.Errorf("bad topology: %v", err)
		}
		cfg.Topology = topo
	}
	if req.Program == core.Airshed && req.Hours > 0 {
		ap := airshed.PaperParams()
		ap.Hours = req.Hours
		cfg.AirshedParams = ap
	}
	if err := core.Validate(cfg); err != nil {
		return core.RunConfig{}, err
	}
	return cfg, nil
}

// statusJSON is the GET /v1/runs/{id} payload.
type statusJSON struct {
	ID        string  `json:"id"`
	State     string  `json:"state"`
	Key       string  `json:"key"`
	Analysis  string  `json:"analysis"`
	Cached    bool    `json:"cached"`
	Deduped   bool    `json:"deduped"`
	WallMs    float64 `json:"wall_ms,omitempty"`
	Error     string  `json:"error,omitempty"`
	Submitted string  `json:"submitted"`

	Result *resultJSON `json:"result,omitempty"`
	// Model is the fitted catalog entry of a completed fit job.
	Model *catalog.EntryJSON `json:"model,omitempty"`
}

// resultJSON summarizes a completed run.
type resultJSON struct {
	Packets       int               `json:"packets"`
	Bytes         int64             `json:"bytes"`
	ElapsedS      float64           `json:"elapsed_s"`
	KBps          catalog.JSONFloat `json:"kbps"`
	FundamentalHz catalog.JSONFloat `json:"fundamental_hz"`
	RunError      string            `json:"run_error,omitempty"`
}

// IdempotencyKeyHeader carries a client-chosen token that makes a
// retried submit return the originally accepted job instead of creating
// a duplicate. The token survives crashes via the journal.
const IdempotencyKeyHeader = "Idempotency-Key"

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// Read whole and unmarshaled, so trailing bytes after the object are
	// a 400 rather than ignored.
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	var req RunRequest
	if err == nil {
		err = json.Unmarshal(body, &req)
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	cfg, err := req.config()
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	analysis, err := req.analysis()
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if !s.admitSubmit(w) {
		return
	}
	s.enqueue(w, r, cfg, submittedRec{Key: farm.Key(cfg), Analysis: analysis, Request: req})
}

// admitSubmit is the gate every submission (run or fit) passes once its
// body is valid: refused while draining, before recovery, and while the
// execution breaker is open.
func (s *Server) admitSubmit(w http.ResponseWriter) bool {
	switch {
	case s.draining.Load():
		w.Header().Set("Retry-After", "5")
		writeErr(w, http.StatusServiceUnavailable, "draining")
	case !s.ready.Load():
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusServiceUnavailable, "recovering: journal replay in progress")
	case !s.breaker.allow():
		s.metrics.breakerRejects.Add(1)
		w.Header().Set("Retry-After", "5")
		writeErr(w, http.StatusServiceUnavailable, "execution circuit breaker open")
	default:
		return true
	}
	return false
}

// enqueue is the one submission path behind POST /v1/runs and
// POST /v1/models/fit. sub carries the key, analysis, request and fit
// budget; enqueue replays a known Idempotency-Key's 202, or allocates
// the ID, makes the submission durable, starts the job and answers 202.
// Once the 202 leaves, a crash at any point must still honor it; from
// the journal append on the submit is not abortable by client
// disconnect — a half-acknowledged record with no job would be a lie in
// the other direction.
func (s *Server) enqueue(w http.ResponseWriter, r *http.Request, cfg core.RunConfig, sub submittedRec) {
	sub.IdemKey = r.Header.Get(IdempotencyKeyHeader)
	j, resolve := s.claimIdem(sub.IdemKey)
	if j != nil {
		s.breaker.abandon()
		s.accept(w, j, true)
		return
	}
	sub.ID = s.jobs.allocID()
	if err := s.appendJournal(journal.OpSubmitted, sub); err != nil {
		resolve("")
		s.breaker.abandon()
		s.logf("journal: submit %s: %v", sub.ID, err)
		w.Header().Set("Retry-After", "5")
		writeErr(w, http.StatusServiceUnavailable, "journal unavailable: submission cannot be made durable")
		return
	}
	j = s.jobs.start(sub.ID, cfg, sub.Analysis == "stream", sub.Fit)
	resolve(sub.ID)
	s.accept(w, j, false)
}

// claimIdem returns the job an idempotency key already names, or
// reserves the key for the caller's submit. A submit carrying a key
// whose first attempt is still between ID allocation and job start
// waits for it; other keys never wait on that attempt's fsync. The
// caller must call resolve exactly once, with the started job's ID or
// "" to drop the reservation. An empty key claims nothing.
func (s *Server) claimIdem(key string) (_ *job, resolve func(id string)) {
	if key == "" {
		return nil, func(string) {}
	}
	s.idemMu.Lock()
	for {
		if id, ok := s.idem[key]; ok {
			if j, ok := s.jobs.get(id); ok {
				s.idemMu.Unlock()
				return j, nil
			}
		}
		pending, ok := s.idemPending[key]
		if !ok {
			break
		}
		s.idemMu.Unlock()
		<-pending
		s.idemMu.Lock()
	}
	done := make(chan struct{})
	s.idemPending[key] = done
	s.idemMu.Unlock()
	return nil, func(id string) {
		s.idemMu.Lock()
		if id != "" {
			s.idem[key] = id
		}
		delete(s.idemPending, key)
		s.idemMu.Unlock()
		close(done)
	}
}

// accept writes the 202 payload for a (possibly replayed) submission.
func (s *Server) accept(w http.ResponseWriter, j *job, idempotentReplay bool) {
	out := map[string]any{
		"id":       j.ID,
		"key":      j.Key,
		"state":    stateQueued,
		"analysis": j.analysis(),
		"status":   "/v1/runs/" + j.ID,
	}
	if idempotentReplay {
		state, _, _, _, _, _, _ := j.snapshot()
		out["state"] = state
		out["idempotent_replay"] = true
	}
	writeJSON(w, http.StatusAccepted, out)
}

func (s *Server) lookupJob(w http.ResponseWriter, r *http.Request) (*job, bool) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "no such run %q", r.PathValue("id"))
		return nil, false
	}
	return j, true
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	state, res, rep, err, cached, deduped, wall := j.snapshot()
	out := statusJSON{
		ID: j.ID, State: state, Key: j.Key,
		Analysis: j.analysis(),
		Cached:   cached, Deduped: deduped,
		WallMs:    float64(wall.Microseconds()) / 1000,
		Submitted: j.Submitted.UTC().Format(time.RFC3339Nano),
	}
	if err != nil {
		out.Error = err.Error()
	}
	if state == stateDone {
		if e := j.model(); e != nil {
			ej := catalog.ToJSON(e)
			out.Model = &ej
		}
	}
	if state == stateDone && res != nil {
		rj := &resultJSON{ElapsedS: res.Elapsed.Seconds()}
		if j.Stream {
			// Stream jobs keep no packets; the counts come from the
			// characterization folded during the run.
			if rep != nil {
				rj.Packets = int(rep.AggSize.N)
				rj.Bytes = int64(math.Round(rep.AggSize.Mean * float64(rep.AggSize.N)))
				rj.KBps = catalog.JSONFloat(rep.AggKBps)
			}
		} else {
			rj.Packets = res.Trace.Len()
			rj.Bytes = res.Trace.TotalBytes()
			rj.KBps = catalog.JSONFloat(analysis.AverageBandwidthKBps(res.Trace))
		}
		if rep != nil && rep.AggSpectrum != nil {
			rj.FundamentalHz = catalog.JSONFloat(rep.AggSpectrum.DominantFreq())
		}
		if res.RunErr != nil {
			rj.RunError = res.RunErr.Error()
		}
		out.Result = rj
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	j.cancel()
	<-j.done
	state, _, _, _, _, _, _ := j.snapshot()
	writeJSON(w, http.StatusOK, map[string]string{"id": j.ID, "state": state})
}

// doneJob fetches a job and requires it to be done, else 409/404.
func (s *Server) doneJob(w http.ResponseWriter, r *http.Request) (*job, bool) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return nil, false
	}
	state, _, _, _, _, _, _ := j.snapshot()
	if state != stateDone {
		writeErr(w, http.StatusConflict, "run %s is %s, not done", j.ID, state)
		return nil, false
	}
	return j, true
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.doneJob(w, r)
	if !ok {
		return
	}
	if j.Stream {
		writeErr(w, http.StatusConflict,
			"run %s was submitted with analysis=stream and kept no trace; use /spectrum or resubmit with analysis=trace", j.ID)
		return
	}
	endStream := s.streamBegin()
	defer endStream()
	_, res, _, _, _, _, _ := j.snapshot()
	if r.URL.Query().Get("format") == "bin" {
		// The binary codec streams through the same chunked writer the
		// disk cache uses; fxanalyze reads it directly.
		w.Header().Set("Content-Type", "application/octet-stream")
		if err := res.Trace.WriteBinary(w); err != nil {
			s.logf("trace stream %s: %v", j.ID, err)
		}
		return
	}
	if err := streamTraceNDJSON(w, res.Trace); err != nil {
		s.logf("trace stream %s: %v", j.ID, err)
	}
}

func (s *Server) handleSpectrum(w http.ResponseWriter, r *http.Request) {
	j, ok := s.doneJob(w, r)
	if !ok {
		return
	}
	endStream := s.streamBegin()
	defer endStream()
	_, res, rep, _, _, _, _ := j.snapshot()
	kind := "aggregate"
	var spec *dsp.Spectrum
	if r.URL.Query().Get("conn") != "" {
		kind = "connection"
		if rep != nil {
			spec = rep.ConnSpectrum
		}
	} else if rep != nil {
		spec = rep.AggSpectrum
	}
	if spec == nil {
		writeErr(w, http.StatusNotFound, "run %s has no %s spectrum", j.ID, kind)
		return
	}
	if err := streamSpectrumNDJSON(w, res.Config.Program, kind, spec); err != nil {
		s.logf("spectrum stream %s: %v", j.ID, err)
	}
}

func (s *Server) handleNegotiate(w http.ResponseWriter, r *http.Request) {
	var req NegotiateRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	var off OfferJSON
	var err error
	switch req.Source {
	case "", "analytic":
		off, err = s.broker.negotiate(&req)
	case "catalog":
		off, err = s.catalogProgram(&req)
	default:
		writeErr(w, http.StatusBadRequest, "unknown source %q (have analytic, catalog)", req.Source)
		return
	}
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, errNoCapacity) {
			code = http.StatusConflict
		}
		writeErr(w, code, "%v", err)
		return
	}
	if !req.DryRun && off.ID != 0 {
		// Commit-then-journal: if the grant cannot be made durable, roll
		// it back so a recovered node never under-reports commitments.
		if err := s.appendJournal(journal.OpGrant, grantRec{Offer: off, Client: req.Client}); err != nil {
			s.broker.release(off.ID)
			s.logf("journal: grant %d: %v", off.ID, err)
			w.Header().Set("Retry-After", "5")
			writeErr(w, http.StatusServiceUnavailable, "journal unavailable: admission cannot be made durable")
			return
		}
	}
	_, _, available, _ := s.broker.snapshot()
	writeJSON(w, http.StatusOK, map[string]any{
		"offer":         off,
		"available_bps": available,
	})
}

func (s *Server) handleCommitments(w http.ResponseWriter, r *http.Request) {
	offers, committed, available, capacity := s.broker.snapshot()
	if offers == nil {
		offers = []OfferJSON{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"commitments":   offers,
		"committed_bps": committed,
		"available_bps": available,
		"capacity_bps":  capacity,
	})
}

func (s *Server) handleRelease(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad commitment id %q", r.PathValue("id"))
		return
	}
	if !s.broker.release(id) {
		writeErr(w, http.StatusNotFound, "no commitment %d", id)
		return
	}
	if err := s.appendJournal(journal.OpRelease, releaseRec{ID: id}); err != nil {
		// The release already happened in memory; a journal failure here
		// means the next boot restores a commitment the client gave
		// back. Capacity leaks conservative, not over-committed.
		s.logf("journal: release %d: %v", id, err)
	}
	writeJSON(w, http.StatusOK, map[string]any{"released": id})
}

// handleHealthz is liveness: it answers 200 whenever the process can
// serve HTTP at all, including during replay and drain — a node that is
// starting up or emptying is alive, just not ready. Restart decisions
// key off this; routing decisions key off /readyz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	fs := s.farm.Stats()
	jobCounts := s.jobs.counts()
	offers, committed, available, capacity := s.broker.snapshot()
	status := "ok"
	switch {
	case s.draining.Load():
		status = "draining"
	case !s.ready.Load():
		status = "starting"
	}
	jhealth := map[string]any{"enabled": s.journal != nil}
	if s.journal != nil {
		jhealth["path"] = s.journal.Path()
		jhealth["replayed_records"] = s.jstats.replayed.Load()
		jhealth["truncated_bytes"] = s.jstats.truncated.Load()
		jhealth["append_failures"] = s.jstats.appendFails.Load()
		if err := s.journal.Err(); err != nil {
			jhealth["error"] = err.Error()
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   status,
		"version":  version.String(),
		"uptime_s": time.Since(s.started).Seconds(),
		"journal":  jhealth,
		"farm": map[string]any{
			"workers":    s.farm.Workers(),
			"submitted":  fs.Submitted,
			"completed":  fs.Completed,
			"executed":   fs.Executed,
			"cache_hits": fs.CacheHits,
			"deduped":    fs.Deduped,
			"failed":     fs.Failed,
			"cancelled":  fs.Cancelled,
			"running":    fs.Running,
		},
		"jobs": jobCounts,
		"qos": map[string]any{
			"commitments":   len(offers),
			"committed_bps": committed,
			"available_bps": available,
			"capacity_bps":  capacity,
		},
	})
}

// handleReadyz is readiness: 200 only when journal replay has finished
// and the node is not draining, so load balancers route traffic here
// exactly while the node can accept it.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	switch {
	case s.draining.Load():
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "reason": "draining"})
	case !s.ready.Load():
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "reason": "recovering"})
	default:
		writeJSON(w, http.StatusOK, map[string]any{"ready": true})
	}
}
