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
	"fxnet/internal/cluster"
	"fxnet/internal/core"
	"fxnet/internal/dsp"
	"fxnet/internal/durable"
	"fxnet/internal/farm"
	"fxnet/internal/journal"
	"fxnet/internal/kernels"
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
	// Cluster configures the consistent-hash shard ring this node
	// participates in; an empty peer list disables clustering.
	Cluster cluster.Config
	// ClusterRoute selects what happens to requests whose key (or job
	// ID) another shard owns: "proxy" (default) forwards transparently,
	// "off" serves everything locally.
	ClusterRoute string
	// ClusterCapacityBps is the cluster-wide schedulable QoS capacity
	// that the gossiped ledger divides among shards; <= 0 reuses the
	// local CapacityBps (each shard then assumes it may use the whole
	// network unless peers report commitments).
	ClusterCapacityBps float64
	// CapacityBps is the QoS broker's schedulable capacity in bytes/s;
	// <= 0 selects the calibrated shared-segment default (1.1 MB/s).
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
	// JournalNoSync skips the per-append fsync; tests only.
	JournalNoSync bool
	// MaxQueue is the farm queue depth at which load shedding starts
	// refusing submissions (and, at twice this depth, polls);
	// <= 0 selects 256.
	MaxQueue int
	// BreakerThreshold is the consecutive farm failures that open the
	// execution circuit breaker; <= 0 selects 5. BreakerCooldown is the
	// open interval before a half-open probe; <= 0 selects 5s.
	BreakerThreshold int
	BreakerCooldown  time.Duration
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
	clu     *clusterState
	logger  *log.Logger
	started time.Time

	journal   *journal.Journal
	jstats    journalStats
	recovered *recoveredState

	idemMu sync.Mutex
	idem   map[string]string // idempotency key → job ID

	streamsMu sync.Mutex
	streams   int
	streamsCh chan struct{} // closed+replaced when streams hits 0

	reqSeq   atomic.Uint64
	draining atomic.Bool
	ready    atomic.Bool
}

// defaultCapacityBps matches core's qosCapacityBps: 10 Mb/s derated by
// framing and CSMA/CD overhead.
const defaultCapacityBps = 1.1e6

// New assembles a server. When a journal is configured its records are
// replayed into a recovered-state snapshot here, but jobs are not
// re-enqueued until Recover — the caller decides when the node starts
// doing work (and can abort mid-replay on SIGTERM).
func New(opts Options) (*Server, error) {
	fo := farm.Options{
		Workers:        opts.Workers,
		Memoize:        opts.Memoize,
		MemoMaxEntries: opts.MemoMaxEntries,
		MemoMaxBytes:   opts.MemoMaxBytes,
	}
	if opts.CacheDir != "" {
		c, err := farm.OpenCacheFS(opts.FS, opts.CacheDir)
		if err != nil {
			return nil, err
		}
		fo.Cache = c
	}
	cap := opts.CapacityBps
	if cap <= 0 {
		cap = defaultCapacityBps
	}
	logger := opts.Log
	if logger == nil {
		logger = log.New(io.Discard, "", 0)
	}
	var clu *clusterState
	if len(opts.Cluster.Peers) > 0 {
		ring, err := cluster.NewRing(opts.Cluster)
		if err != nil {
			return nil, err
		}
		route := opts.ClusterRoute
		switch route {
		case "":
			route = RouteProxy
		case RouteProxy, RouteOff:
		default:
			return nil, fmt.Errorf("server: unknown cluster route %q (have proxy, off)", route)
		}
		clu = &clusterState{
			ring:   ring,
			ledger: cluster.NewLedger(),
			route:  route,
			httpc:  &http.Client{Timeout: 30 * time.Second},
		}
		clu.capacityBps = opts.ClusterCapacityBps
		if clu.capacityBps <= 0 {
			clu.capacityBps = cap
		}
		// A clustered broker starts from the cluster-wide capacity;
		// gossip subtracts what peers have committed each round.
		cap = clu.capacityBps
		if fo.Cache != nil {
			clu.fetcher = cluster.NewFetcher(ring, fo.Cache, nil)
			fo.PeerFetch = clu.fetcher.Fetch
		}
	}
	f := farm.New(fo)
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
		farm:    f,
		jobs:    newJobRegistry(f),
		catalog: cat,
		fitter:  fitter,
		broker:  newBroker(cap, opts.MaxP),
		clu:     clu,
		metrics: newMetrics(),
		limiter: newClientLimiter(opts.ClientLimit),
		breaker: newBreaker(opts.BreakerThreshold, opts.BreakerCooldown),
		logger:  logger,
		idem:    make(map[string]string),
		started: time.Now(),
	}
	s.jobs.fitter = fitter
	if clu != nil {
		// Shard-prefixed job IDs let any peer route a poll to the shard
		// that owns the job.
		s.jobs.shard = clu.ring.SelfID()
	}
	s.shedder = newShedder(opts.MaxQueue, func() int64 {
		fs := f.Stats()
		q := fs.Submitted - fs.Completed - fs.Running
		if q < 0 {
			q = 0
		}
		return q
	})
	s.jobs.onTerminal = func(j *job, state, errMsg string) {
		switch state {
		case stateDone:
			s.breaker.success()
		case stateFailed:
			s.breaker.failure()
		}
		if err := s.appendJournal(journal.OpTerminal, terminalRec{ID: j.ID, State: state, Error: errMsg}); err != nil {
			// The result is live in memory; at worst the next boot
			// re-runs the job. Log, don't fail the job.
			s.logf("journal: terminal record for %s: %v", j.ID, err)
		}
	}
	if opts.JournalPath != "" {
		rs := newRecoveredState()
		jn, st, err := journal.Open(opts.JournalPath, journal.Options{FS: opts.FS, NoSync: opts.JournalNoSync}, rs.fold)
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
	mux.HandleFunc("GET /v1/cache/{key}", s.instrument("cache_entry", false, classPoll, s.handleCacheEntry))
	mux.HandleFunc("GET /v1/cluster/ring", s.instrument("cluster_ring", false, classOps, s.handleClusterRing))
	mux.HandleFunc("GET /v1/cluster/ledger", s.instrument("cluster_ledger", false, classOps, s.handleClusterLedger))
	mux.HandleFunc("GET /metrics", s.instrument("metrics", false, classOps, s.handleMetrics))
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

// stream validates the analysis selector.
func (req *RunRequest) stream() (bool, error) {
	switch req.Analysis {
	case "", "trace":
		return false, nil
	case "stream":
		return true, nil
	default:
		return false, fmt.Errorf("unknown analysis %q (have trace, stream)", req.Analysis)
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
	if s.draining.Load() {
		w.Header().Set("Retry-After", "5")
		writeErr(w, http.StatusServiceUnavailable, "draining")
		return
	}
	if !s.ready.Load() {
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusServiceUnavailable, "recovering: journal replay in progress")
		return
	}
	if !s.breaker.allow() {
		s.metrics.breakerReject()
		w.Header().Set("Retry-After", "5")
		writeErr(w, http.StatusServiceUnavailable, "execution circuit breaker open")
		return
	}
	// The body is captured whole so an off-ring submission can be
	// re-posted verbatim to the shard that owns its key.
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	var req RunRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	cfg, err := req.config()
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	stream, err := req.stream()
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	key := farm.Key(cfg)
	if s.routeSubmit(w, r, key, body) {
		return
	}

	idemKey := r.Header.Get(IdempotencyKeyHeader)
	if idemKey != "" {
		s.idemMu.Lock()
		id, seen := s.idem[idemKey]
		s.idemMu.Unlock()
		if seen {
			if j, ok := s.jobs.get(id); ok {
				s.accept(w, j, true)
				return
			}
		}
	}

	// Allocate the ID, make the submission durable, then start the job:
	// once the 202 leaves, a crash at any point must still honor it.
	// From this point the submit is not abortable by client disconnect —
	// a half-acknowledged journal record with no job would be a lie in
	// the other direction.
	id := s.jobs.allocID()
	sub := submittedRec{ID: id, Key: key, IdemKey: idemKey, Request: req}
	if stream {
		sub.Analysis = "stream"
	} else {
		sub.Analysis = "trace"
	}
	if err := s.appendJournal(journal.OpSubmitted, sub); err != nil {
		s.logf("journal: submit %s: %v", id, err)
		w.Header().Set("Retry-After", "5")
		writeErr(w, http.StatusServiceUnavailable, "journal unavailable: submission cannot be made durable")
		return
	}
	j := s.jobs.start(id, cfg, stream, 0)
	if idemKey != "" {
		s.idemMu.Lock()
		s.idem[idemKey] = id
		s.idemMu.Unlock()
	}
	s.accept(w, j, false)
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
	// A job ID minted by another shard is served there; routeJob writes
	// the (proxied) response itself.
	if s.routeJob(w, r) {
		return nil, false
	}
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
		if isNoCapacity(err) {
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

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fs := s.farm.Stats()
	jobCounts := s.jobs.counts()
	_, committed, available, capacity := s.broker.snapshot()

	fmt.Fprintf(w, "# HELP fxnetd_build_info Build identity.\n# TYPE fxnetd_build_info gauge\nfxnetd_build_info{version=%q} 1\n", version.String())
	fmt.Fprintf(w, "# HELP fxnetd_uptime_seconds Seconds since the server started.\n# TYPE fxnetd_uptime_seconds gauge\nfxnetd_uptime_seconds %g\n", time.Since(s.started).Seconds())

	fmt.Fprintln(w, "# HELP fxnetd_farm_submitted_total Jobs submitted to the experiment farm.\n# TYPE fxnetd_farm_submitted_total counter")
	fmt.Fprintf(w, "fxnetd_farm_submitted_total %d\n", fs.Submitted)
	fmt.Fprintln(w, "# HELP fxnetd_farm_completed_total Farm jobs completed.\n# TYPE fxnetd_farm_completed_total counter")
	fmt.Fprintf(w, "fxnetd_farm_completed_total %d\n", fs.Completed)
	fmt.Fprintln(w, "# HELP fxnetd_farm_executed_total Simulations actually executed (not cached or deduplicated).\n# TYPE fxnetd_farm_executed_total counter")
	fmt.Fprintf(w, "fxnetd_farm_executed_total %d\n", fs.Executed)
	fmt.Fprintln(w, "# HELP fxnetd_farm_cache_hits_total Disk-cache hits.\n# TYPE fxnetd_farm_cache_hits_total counter")
	fmt.Fprintf(w, "fxnetd_farm_cache_hits_total %d\n", fs.CacheHits)
	fmt.Fprintln(w, "# HELP fxnetd_farm_deduped_total Jobs that shared another execution (single-flight or memo).\n# TYPE fxnetd_farm_deduped_total counter")
	fmt.Fprintf(w, "fxnetd_farm_deduped_total %d\n", fs.Deduped)
	fmt.Fprintln(w, "# HELP fxnetd_farm_failed_total Farm jobs that failed.\n# TYPE fxnetd_farm_failed_total counter")
	fmt.Fprintf(w, "fxnetd_farm_failed_total %d\n", fs.Failed)
	fmt.Fprintln(w, "# HELP fxnetd_farm_cancelled_total Farm jobs cancelled before executing.\n# TYPE fxnetd_farm_cancelled_total counter")
	fmt.Fprintf(w, "fxnetd_farm_cancelled_total %d\n", fs.Cancelled)

	fmt.Fprintln(w, "# HELP fxnetd_sims_in_flight Simulations holding a worker slot right now.\n# TYPE fxnetd_sims_in_flight gauge")
	fmt.Fprintf(w, "fxnetd_sims_in_flight %d\n", fs.Running)
	queued := fs.Submitted - fs.Completed - fs.Running
	if queued < 0 {
		queued = 0
	}
	fmt.Fprintln(w, "# HELP fxnetd_queue_depth Farm jobs submitted but neither running nor completed.\n# TYPE fxnetd_queue_depth gauge")
	fmt.Fprintf(w, "fxnetd_queue_depth %d\n", queued)

	fmt.Fprintln(w, "# HELP fxnetd_jobs Run submissions by state.\n# TYPE fxnetd_jobs gauge")
	for _, st := range []string{stateQueued, stateDone, stateFailed, stateCancelled} {
		fmt.Fprintf(w, "fxnetd_jobs{state=%q} %d\n", st, jobCounts[st])
	}

	fmt.Fprintln(w, "# HELP fxnetd_ready Whether the node is ready for traffic (recovery done, not draining).\n# TYPE fxnetd_ready gauge")
	ready := 0
	if s.Ready() {
		ready = 1
	}
	fmt.Fprintf(w, "fxnetd_ready %d\n", ready)

	bstate, bopened := s.breaker.snapshot()
	fmt.Fprintln(w, "# HELP fxnetd_breaker_state Execution circuit breaker state (0 closed, 1 half-open, 2 open).\n# TYPE fxnetd_breaker_state gauge")
	fmt.Fprintf(w, "fxnetd_breaker_state{state=%q} %d\n", breakerStateName(bstate), bstate)
	fmt.Fprintln(w, "# HELP fxnetd_breaker_opened_total Times the execution circuit breaker opened.\n# TYPE fxnetd_breaker_opened_total counter")
	fmt.Fprintf(w, "fxnetd_breaker_opened_total %d\n", bopened)

	fmt.Fprintln(w, "# HELP fxnetd_shed_tier Current load-shedding tier (0 none, 1 submits, 2 polls).\n# TYPE fxnetd_shed_tier gauge")
	fmt.Fprintf(w, "fxnetd_shed_tier %d\n", s.shedder.tier())
	fmt.Fprintln(w, "# HELP fxnetd_shed_total Requests refused by load shedding, by endpoint class.\n# TYPE fxnetd_shed_total counter")
	for class := classOps; class <= classSubmit; class++ {
		fmt.Fprintf(w, "fxnetd_shed_total{class=%q} %d\n", shedClassName(class), s.shedder.shed[class].Load())
	}

	fmt.Fprintln(w, "# HELP fxnetd_streams_in_flight Streaming responses being written right now.\n# TYPE fxnetd_streams_in_flight gauge")
	s.streamsMu.Lock()
	streams := s.streams
	s.streamsMu.Unlock()
	fmt.Fprintf(w, "fxnetd_streams_in_flight %d\n", streams)

	jenabled := 0
	if s.journal != nil {
		jenabled = 1
	}
	fmt.Fprintln(w, "# HELP fxnetd_journal_enabled Whether the durable job journal is configured.\n# TYPE fxnetd_journal_enabled gauge")
	fmt.Fprintf(w, "fxnetd_journal_enabled %d\n", jenabled)
	fmt.Fprintln(w, "# HELP fxnetd_journal_appends_total Journal records appended, by op.\n# TYPE fxnetd_journal_appends_total counter")
	for _, op := range []journal.Op{journal.OpSubmitted, journal.OpTerminal, journal.OpGrant, journal.OpRelease} {
		fmt.Fprintf(w, "fxnetd_journal_appends_total{op=%q} %d\n", op.String(), s.jstats.appends[op].Load())
	}
	fmt.Fprintln(w, "# HELP fxnetd_journal_append_failures_total Journal appends that failed (durability refused).\n# TYPE fxnetd_journal_append_failures_total counter")
	fmt.Fprintf(w, "fxnetd_journal_append_failures_total %d\n", s.jstats.appendFails.Load())
	fmt.Fprintln(w, "# HELP fxnetd_journal_replayed_records Records replayed from the journal at boot.\n# TYPE fxnetd_journal_replayed_records gauge")
	fmt.Fprintf(w, "fxnetd_journal_replayed_records %d\n", s.jstats.replayed.Load())
	fmt.Fprintln(w, "# HELP fxnetd_journal_truncated_bytes Torn-tail bytes dropped from the journal at boot.\n# TYPE fxnetd_journal_truncated_bytes gauge")
	fmt.Fprintf(w, "fxnetd_journal_truncated_bytes %d\n", s.jstats.truncated.Load())

	eng := &s.jobs.engine
	windows := eng.windows.Load()
	fmt.Fprintln(w, "# HELP fxnetd_engine_windows_total Conservative-PDES windows executed across partitioned runs.\n# TYPE fxnetd_engine_windows_total counter")
	fmt.Fprintf(w, "fxnetd_engine_windows_total %d\n", windows)
	fmt.Fprintln(w, "# HELP fxnetd_engine_null_publishes_total Demand-driven null-horizon publications by idle partitions.\n# TYPE fxnetd_engine_null_publishes_total counter")
	fmt.Fprintf(w, "fxnetd_engine_null_publishes_total %d\n", eng.nulls.Load())
	fmt.Fprintln(w, "# HELP fxnetd_engine_cross_messages_total Cross-partition messages exchanged at window barriers.\n# TYPE fxnetd_engine_cross_messages_total counter")
	fmt.Fprintf(w, "fxnetd_engine_cross_messages_total %d\n", eng.crossMsgs.Load())
	fmt.Fprintln(w, "# HELP fxnetd_engine_partitioned_runs_total Runs that executed the partitioned engine (cache hits excluded).\n# TYPE fxnetd_engine_partitioned_runs_total counter")
	fmt.Fprintf(w, "fxnetd_engine_partitioned_runs_total %d\n", eng.partedRuns.Load())
	meanActive := 0.0
	if windows > 0 {
		meanActive = float64(eng.activeSum.Load()) / float64(windows)
	}
	fmt.Fprintln(w, "# HELP fxnetd_engine_mean_active_partitions Mean partitions doing work per window, across partitioned runs.\n# TYPE fxnetd_engine_mean_active_partitions gauge")
	fmt.Fprintf(w, "fxnetd_engine_mean_active_partitions %g\n", meanActive)

	fmt.Fprintln(w, "# HELP fxnetd_farm_peer_hits_total Cache hits satisfied by fetching the entry from a cluster peer.\n# TYPE fxnetd_farm_peer_hits_total counter")
	fmt.Fprintf(w, "fxnetd_farm_peer_hits_total %d\n", fs.PeerHits)
	fmt.Fprintln(w, "# HELP fxnetd_farm_memo_evicted_total Memoized results evicted by the in-memory LRU caps.\n# TYPE fxnetd_farm_memo_evicted_total counter")
	fmt.Fprintf(w, "fxnetd_farm_memo_evicted_total %d\n", fs.MemoEvicted)

	if c := s.farm.Cache(); c != nil {
		cs := c.Stats()
		fmt.Fprintln(w, "# HELP fxnetd_cache_entries Published run-cache entries on disk.\n# TYPE fxnetd_cache_entries gauge")
		fmt.Fprintf(w, "fxnetd_cache_entries %d\n", cs.Entries)
		fmt.Fprintln(w, "# HELP fxnetd_cache_bytes Bytes of published run-cache entries on disk.\n# TYPE fxnetd_cache_bytes gauge")
		fmt.Fprintf(w, "fxnetd_cache_bytes %d\n", cs.Bytes)
		fmt.Fprintln(w, "# HELP fxnetd_cache_quarantined_total Corrupt cache entries quarantined instead of silently re-executed.\n# TYPE fxnetd_cache_quarantined_total counter")
		fmt.Fprintf(w, "fxnetd_cache_quarantined_total %d\n", c.Quarantined())
		fmt.Fprintln(w, "# HELP fxnetd_cache_quarantined_kind_total Quarantined cache entries by kind.\n# TYPE fxnetd_cache_quarantined_kind_total counter")
		kinds := c.QuarantinedKinds()
		if s.catalog != nil {
			kinds["model"] = s.catalog.Quarantined()
		}
		for _, kind := range []string{"run", "spec", "model", "other"} {
			fmt.Fprintf(w, "fxnetd_cache_quarantined_kind_total{kind=%q} %d\n", kind, kinds[kind])
		}
		fmt.Fprintln(w, "# HELP fxnetd_cache_store_failures_total Run-cache entries that could not be stored durably.\n# TYPE fxnetd_cache_store_failures_total counter")
		fmt.Fprintf(w, "fxnetd_cache_store_failures_total %d\n", c.StoreFailures())
	}

	s.writeClusterMetrics(w)

	cenabled := 0
	if s.catalog != nil {
		cenabled = 1
	}
	fmt.Fprintln(w, "# HELP fxnetd_catalog_enabled Whether the fitted-model catalog is configured.\n# TYPE fxnetd_catalog_enabled gauge")
	fmt.Fprintf(w, "fxnetd_catalog_enabled %d\n", cenabled)
	if s.catalog != nil {
		fmt.Fprintln(w, "# HELP fxnetd_catalog_entries Fitted models in the catalog.\n# TYPE fxnetd_catalog_entries gauge")
		fmt.Fprintf(w, "fxnetd_catalog_entries %d\n", s.catalog.Len())
		fmt.Fprintln(w, "# HELP fxnetd_catalog_bytes Bytes of fitted models in the catalog.\n# TYPE fxnetd_catalog_bytes gauge")
		fmt.Fprintf(w, "fxnetd_catalog_bytes %d\n", s.catalog.Bytes())
		fmt.Fprintln(w, "# HELP fxnetd_catalog_hits_total Catalog lookups answered from a stored model.\n# TYPE fxnetd_catalog_hits_total counter")
		fmt.Fprintf(w, "fxnetd_catalog_hits_total %d\n", s.catalog.Hits())
		fmt.Fprintln(w, "# HELP fxnetd_catalog_misses_total Catalog lookups that found no usable model.\n# TYPE fxnetd_catalog_misses_total counter")
		fmt.Fprintf(w, "fxnetd_catalog_misses_total %d\n", s.catalog.Misses())
		fmt.Fprintln(w, "# HELP fxnetd_catalog_fits_total Spectral-model fits performed (catalog hits excluded).\n# TYPE fxnetd_catalog_fits_total counter")
		fmt.Fprintf(w, "fxnetd_catalog_fits_total %d\n", s.fitter.Fits())
		fmt.Fprintln(w, "# HELP fxnetd_catalog_quarantined_total Corrupt catalog entries quarantined.\n# TYPE fxnetd_catalog_quarantined_total counter")
		fmt.Fprintf(w, "fxnetd_catalog_quarantined_total %d\n", s.catalog.Quarantined())
		fmt.Fprintln(w, "# HELP fxnetd_catalog_store_failures_total Catalog entries that could not be stored durably.\n# TYPE fxnetd_catalog_store_failures_total counter")
		fmt.Fprintf(w, "fxnetd_catalog_store_failures_total %d\n", s.catalog.StoreFailures())
	}

	fmt.Fprintln(w, "# HELP fxnetd_qos_commitments Outstanding QoS commitments.\n# TYPE fxnetd_qos_commitments gauge")
	fmt.Fprintf(w, "fxnetd_qos_commitments %d\n", len(s.mustOffers()))
	fmt.Fprintln(w, "# HELP fxnetd_qos_committed_bytes_per_second Mean bandwidth promised to admitted programs.\n# TYPE fxnetd_qos_committed_bytes_per_second gauge")
	fmt.Fprintf(w, "fxnetd_qos_committed_bytes_per_second %g\n", committed)
	fmt.Fprintln(w, "# HELP fxnetd_qos_available_bytes_per_second Capacity not yet committed.\n# TYPE fxnetd_qos_available_bytes_per_second gauge")
	fmt.Fprintf(w, "fxnetd_qos_available_bytes_per_second %g\n", available)
	fmt.Fprintln(w, "# HELP fxnetd_qos_capacity_bytes_per_second The broker's schedulable capacity.\n# TYPE fxnetd_qos_capacity_bytes_per_second gauge")
	fmt.Fprintf(w, "fxnetd_qos_capacity_bytes_per_second %g\n", capacity)

	s.metrics.writeProm(w)
}

// mustOffers returns the current commitment list (helper for /metrics).
func (s *Server) mustOffers() []OfferJSON {
	offers, _, _, _ := s.broker.snapshot()
	return offers
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

// isNoCapacity reports whether a negotiation error is a capacity
// rejection (409) rather than a malformed request (400).
func isNoCapacity(err error) bool {
	for e := err; e != nil; {
		if e == errNoCapacity {
			return true
		}
		u, ok := e.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		e = u.Unwrap()
	}
	return false
}
