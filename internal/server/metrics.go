package server

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fxnet/internal/farm"
	"fxnet/internal/journal"
	"fxnet/internal/version"
)

// latencyBuckets are the histogram upper bounds in seconds, spanning the
// sub-millisecond cached-run fast path through multi-second simulations.
var latencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// histogram is a fixed-bucket latency histogram in the Prometheus
// cumulative-bucket convention.
type histogram struct {
	counts []uint64 // one per bucket, non-cumulative; rendered cumulative
	sum    float64
	count  uint64
}

func newHistogram() *histogram {
	return &histogram{counts: make([]uint64, len(latencyBuckets))}
}

func (h *histogram) observe(v float64) {
	h.sum += v
	h.count++
	for i, ub := range latencyBuckets {
		if v <= ub {
			h.counts[i]++
			return
		}
	}
	// +Inf bucket is implicit in count.
}

// metrics aggregates the HTTP layer's counters. All methods are safe for
// concurrent use.
type metrics struct {
	mu       sync.Mutex
	requests map[[2]string]uint64 // {endpoint, code} → count
	latency  map[string]*histogram

	throttled      atomic.Uint64
	breakerRejects atomic.Uint64
}

func newMetrics() *metrics {
	return &metrics{
		requests: make(map[[2]string]uint64),
		latency:  make(map[string]*histogram),
	}
}

func (m *metrics) record(endpoint, code string, seconds float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.requests[[2]string{endpoint, code}]++
	h := m.latency[endpoint]
	if h == nil {
		h = newHistogram()
		m.latency[endpoint] = h
	}
	h.observe(seconds)
}

// emitRequests emits the request counts sorted by endpoint, then code,
// so scrapes are diffable.
func (m *metrics) emitRequests(e emit) {
	m.mu.Lock()
	defer m.mu.Unlock()
	keys := make([][2]string, 0, len(m.requests))
	for k := range m.requests {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		e(fmt.Sprintf("{endpoint=%q,code=%q}", k[0], k[1]), m.requests[k])
	}
}

// emitLatency emits each endpoint's histogram, endpoints sorted.
func (m *metrics) emitLatency(e emit) {
	m.mu.Lock()
	defer m.mu.Unlock()
	eps := make([]string, 0, len(m.latency))
	for ep := range m.latency {
		eps = append(eps, ep)
	}
	sort.Strings(eps)
	for _, ep := range eps {
		h := m.latency[ep]
		var cum uint64
		for i, ub := range latencyBuckets {
			cum += h.counts[i]
			e(fmt.Sprintf("_bucket{endpoint=%q,le=\"%g\"}", ep, ub), cum)
		}
		e(fmt.Sprintf("_bucket{endpoint=%q,le=\"+Inf\"}", ep), h.count)
		e(fmt.Sprintf("_sum{endpoint=%q}", ep), h.sum)
		e(fmt.Sprintf("_count{endpoint=%q}", ep), h.count)
	}
}

// queueDepth is the accepted-but-not-running job count: the load
// shedder's input and the fxnetd_queue_depth gauge. live is the
// registry's count of unfinished jobs, so a job counts from the moment
// it is acknowledged; every simulation the farm runs is one of theirs.
func queueDepth(live int64, fs farm.Stats) int64 {
	return max(live-fs.Running, 0)
}

// scrape is one /metrics request's view of the server: farm stats, job
// counts, the broker ledger and the cache census are each read once, so
// the families that share them agree.
type scrape struct {
	*Server
	fs                             farm.Stats
	jobCounts                      map[string]int
	offers                         int
	committed, available, capacity float64
	cache                          *farm.Cache
	cs                             farm.CacheStats
	has                            [withCatalog + 1]bool
}

// What a family needs to be present: a family whose source this node
// lacks is left out of the scrape, HELP and TYPE included.
const (
	always = iota
	withCache
	withCatalog
)

func newScrape(s *Server) *scrape {
	m := &scrape{Server: s, fs: s.farm.Stats(), jobCounts: s.jobs.counts(), cache: s.farm.Cache()}
	var offers []OfferJSON
	offers, m.committed, m.available, m.capacity = s.broker.snapshot()
	m.offers = len(offers)
	if m.cache != nil {
		m.cs = m.cache.Stats()
	}
	m.has = [...]bool{
		always:      true,
		withCache:   m.cache != nil,
		withCatalog: s.catalog != nil,
	}
	return m
}

// emit writes one sample of the family being rendered: series is the
// name suffix and label set ("", `{state="done"}`, `_sum{…}`), v an
// integer (rendered %d) or a float64 (rendered %g) — %v does both.
type emit func(series string, v any)

// family is one row of the metric table: what /metrics renders and what
// README's "Metrics" table lists.
type family struct {
	name, kind string
	needs      int
	help       string
	read       func(m *scrape, e emit)
}

// write renders the family's HELP and TYPE lines and its samples; the
// one place /metrics text is formatted.
func (f *family) write(w io.Writer, m *scrape) {
	if !m.has[f.needs] {
		return
	}
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind)
	f.read(m, func(series string, v any) { fmt.Fprintf(w, "%s%s %v\n", f.name, series, v) })
}

func bit(b bool) int {
	if b {
		return 1
	}
	return 0
}

// families is the metric table, in exposition order.
var families = []family{
	{"fxnetd_build_info", "gauge", always, "Build identity.", func(m *scrape, e emit) { e(fmt.Sprintf("{version=%q}", version.String()), 1) }},
	{"fxnetd_uptime_seconds", "gauge", always, "Seconds since the server started.", func(m *scrape, e emit) { e("", time.Since(m.started).Seconds()) }},
	{"fxnetd_farm_submitted_total", "counter", always, "Jobs submitted to the experiment farm.", func(m *scrape, e emit) { e("", m.fs.Submitted) }},
	{"fxnetd_farm_completed_total", "counter", always, "Farm jobs completed.", func(m *scrape, e emit) { e("", m.fs.Completed) }},
	{"fxnetd_farm_executed_total", "counter", always, "Simulations actually executed (not cached or deduplicated).", func(m *scrape, e emit) { e("", m.fs.Executed) }},
	{"fxnetd_farm_cache_hits_total", "counter", always, "Disk-cache hits.", func(m *scrape, e emit) { e("", m.fs.CacheHits) }},
	{"fxnetd_farm_deduped_total", "counter", always, "Jobs that shared another execution (single-flight or memo).", func(m *scrape, e emit) { e("", m.fs.Deduped) }},
	{"fxnetd_farm_failed_total", "counter", always, "Farm jobs that failed.", func(m *scrape, e emit) { e("", m.fs.Failed) }},
	{"fxnetd_farm_cancelled_total", "counter", always, "Farm jobs cancelled before executing.", func(m *scrape, e emit) { e("", m.fs.Cancelled) }},
	{"fxnetd_sims_in_flight", "gauge", always, "Simulations holding a worker slot right now.", func(m *scrape, e emit) { e("", m.fs.Running) }},
	{"fxnetd_queue_depth", "gauge", always, "Farm jobs submitted but neither running nor completed.", func(m *scrape, e emit) { e("", queueDepth(m.jobs.live.Load(), m.fs)) }},
	{"fxnetd_jobs", "gauge", always, "Run submissions by state.", func(m *scrape, e emit) {
		for _, st := range []string{stateQueued, stateDone, stateFailed, stateCancelled} {
			e(fmt.Sprintf("{state=%q}", st), m.jobCounts[st])
		}
	}},
	{"fxnetd_ready", "gauge", always, "Whether the node is ready for traffic (recovery done, not draining).", func(m *scrape, e emit) { e("", bit(m.Ready())) }},
	{"fxnetd_breaker_state", "gauge", always, "Execution circuit breaker state (0 closed, 1 half-open, 2 open).", func(m *scrape, e emit) {
		st, _ := m.breaker.snapshot()
		e(fmt.Sprintf("{state=%q}", breakerStateName(st)), st)
	}},
	{"fxnetd_breaker_opened_total", "counter", always, "Times the execution circuit breaker opened.", func(m *scrape, e emit) { _, n := m.breaker.snapshot(); e("", n) }},
	{"fxnetd_shed_tier", "gauge", always, "Current load-shedding tier (0 none, 1 submits, 2 polls).", func(m *scrape, e emit) { e("", m.shedder.tier()) }},
	{"fxnetd_shed_total", "counter", always, "Requests refused by load shedding, by endpoint class.", func(m *scrape, e emit) {
		for class := classOps; class <= classSubmit; class++ {
			e(fmt.Sprintf("{class=%q}", shedClassName(class)), m.shedder.shed[class].Load())
		}
	}},
	{"fxnetd_streams_in_flight", "gauge", always, "Streaming responses being written right now.", func(m *scrape, e emit) {
		m.streamsMu.Lock()
		n := m.streams
		m.streamsMu.Unlock()
		e("", n)
	}},
	{"fxnetd_journal_enabled", "gauge", always, "Whether the durable job journal is configured.", func(m *scrape, e emit) { e("", bit(m.journal != nil)) }},
	{"fxnetd_journal_appends_total", "counter", always, "Journal records appended, by op.", func(m *scrape, e emit) {
		for _, op := range []journal.Op{journal.OpSubmitted, journal.OpTerminal, journal.OpGrant, journal.OpRelease} {
			e(fmt.Sprintf("{op=%q}", op.String()), m.jstats.appends[op].Load())
		}
	}},
	{"fxnetd_journal_append_failures_total", "counter", always, "Journal appends that failed (durability refused).", func(m *scrape, e emit) { e("", m.jstats.appendFails.Load()) }},
	{"fxnetd_journal_replayed_records", "gauge", always, "Records replayed from the journal at boot.", func(m *scrape, e emit) { e("", m.jstats.replayed.Load()) }},
	{"fxnetd_journal_truncated_bytes", "gauge", always, "Torn-tail bytes dropped from the journal at boot.", func(m *scrape, e emit) { e("", m.jstats.truncated.Load()) }},
	{"fxnetd_engine_windows_total", "counter", always, "Conservative-PDES windows executed across partitioned runs.", func(m *scrape, e emit) { e("", m.jobs.engine.windows.Load()) }},
	{"fxnetd_engine_null_publishes_total", "counter", always, "Demand-driven null-horizon publications by idle partitions.", func(m *scrape, e emit) { e("", m.jobs.engine.nulls.Load()) }},
	{"fxnetd_engine_cross_messages_total", "counter", always, "Cross-partition messages exchanged at window barriers.", func(m *scrape, e emit) { e("", m.jobs.engine.crossMsgs.Load()) }},
	{"fxnetd_engine_partitioned_runs_total", "counter", always, "Runs that executed the partitioned engine (cache hits excluded).", func(m *scrape, e emit) { e("", m.jobs.engine.partedRuns.Load()) }},
	{"fxnetd_engine_mean_active_partitions", "gauge", always, "Mean partitions doing work per window, across partitioned runs.", func(m *scrape, e emit) {
		mean := 0.0
		if windows := m.jobs.engine.windows.Load(); windows > 0 {
			mean = float64(m.jobs.engine.activeSum.Load()) / float64(windows)
		}
		e("", mean)
	}},
	{"fxnetd_farm_memo_evicted_total", "counter", always, "Memoized results evicted by the in-memory LRU caps.", func(m *scrape, e emit) { e("", m.fs.MemoEvicted) }},
	{"fxnetd_cache_entries", "gauge", withCache, "Published run-cache entries on disk.", func(m *scrape, e emit) { e("", m.cs.Entries) }},
	{"fxnetd_cache_bytes", "gauge", withCache, "Bytes of published run-cache entries on disk.", func(m *scrape, e emit) { e("", m.cs.Bytes) }},
	{"fxnetd_cache_quarantined_total", "counter", withCache, "Corrupt cache entries quarantined instead of silently re-executed.", func(m *scrape, e emit) { e("", m.cache.Quarantined()) }},
	{"fxnetd_cache_quarantined_kind_total", "counter", withCache, "Quarantined cache entries by kind.", func(m *scrape, e emit) {
		kinds := m.cache.QuarantinedKinds()
		if m.catalog != nil {
			kinds["model"] = m.catalog.Quarantined()
		}
		for _, kind := range []string{"run", "spec", "model", "other"} {
			e(fmt.Sprintf("{kind=%q}", kind), kinds[kind])
		}
	}},
	{"fxnetd_cache_store_failures_total", "counter", withCache, "Run-cache entries that could not be stored durably.", func(m *scrape, e emit) { e("", m.cache.StoreFailures()) }},
	{"fxnetd_catalog_enabled", "gauge", always, "Whether the fitted-model catalog is configured.", func(m *scrape, e emit) { e("", bit(m.catalog != nil)) }},
	{"fxnetd_catalog_entries", "gauge", withCatalog, "Fitted models in the catalog.", func(m *scrape, e emit) { e("", m.catalog.Len()) }},
	{"fxnetd_catalog_bytes", "gauge", withCatalog, "Bytes of fitted models in the catalog.", func(m *scrape, e emit) { e("", m.catalog.Bytes()) }},
	{"fxnetd_catalog_hits_total", "counter", withCatalog, "Catalog lookups answered from a stored model.", func(m *scrape, e emit) { e("", m.catalog.Hits()) }},
	{"fxnetd_catalog_misses_total", "counter", withCatalog, "Catalog lookups that found no usable model.", func(m *scrape, e emit) { e("", m.catalog.Misses()) }},
	{"fxnetd_catalog_fits_total", "counter", withCatalog, "Spectral-model fits performed (catalog hits excluded).", func(m *scrape, e emit) { e("", m.fitter.Fits()) }},
	{"fxnetd_catalog_quarantined_total", "counter", withCatalog, "Corrupt catalog entries quarantined.", func(m *scrape, e emit) { e("", m.catalog.Quarantined()) }},
	{"fxnetd_catalog_store_failures_total", "counter", withCatalog, "Catalog entries that could not be stored durably.", func(m *scrape, e emit) { e("", m.catalog.StoreFailures()) }},
	{"fxnetd_qos_commitments", "gauge", always, "Outstanding QoS commitments.", func(m *scrape, e emit) { e("", m.offers) }},
	{"fxnetd_qos_committed_bytes_per_second", "gauge", always, "Mean bandwidth promised to admitted programs.", func(m *scrape, e emit) { e("", m.committed) }},
	{"fxnetd_qos_available_bytes_per_second", "gauge", always, "Capacity not yet committed.", func(m *scrape, e emit) { e("", m.available) }},
	{"fxnetd_qos_capacity_bytes_per_second", "gauge", always, "The broker's schedulable capacity.", func(m *scrape, e emit) { e("", m.capacity) }},
	{"fxnetd_http_requests_total", "counter", always, "HTTP requests served, by endpoint and status code.", func(m *scrape, e emit) { m.metrics.emitRequests(e) }},
	{"fxnetd_http_throttled_total", "counter", always, "Requests rejected with 429 by the per-client concurrency limiter.", func(m *scrape, e emit) { e("", m.metrics.throttled.Load()) }},
	{"fxnetd_breaker_rejected_total", "counter", always, "Submissions refused because the execution circuit breaker was open.", func(m *scrape, e emit) { e("", m.metrics.breakerRejects.Load()) }},
	{"fxnetd_http_request_duration_seconds", "histogram", always, "Request latency by endpoint.", func(m *scrape, e emit) { m.metrics.emitLatency(e) }},
}

// serveMetrics is GET /metrics: every family this node has, in table
// order, in the Prometheus text exposition format.
func (s *Server) serveMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	m := newScrape(s)
	for i := range families {
		families[i].write(w, m)
	}
}
