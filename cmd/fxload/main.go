// Command fxload drives open-loop load against a running fxnetd and
// reports throughput and latency quantiles. Open-loop means arrivals are
// scheduled by a fixed-rate clock, not by completions: a slow server
// accumulates in-flight requests instead of slowing the offered rate,
// which is the honest way to measure a service's saturation behavior.
//
// The traffic is a weighted mix of the service's surfaces: run
// submissions (content-addressed Idempotency-Key, so retries and
// duplicates land on the originally accepted job), status polls, dry-run
// QoS negotiations, commitment listings, and health checks. All requests
// go through the shared internal/client retry layer; -retries controls
// how many attempts each idempotent request gets before its outcome is
// recorded, so the tool keeps measuring through shedding, breaker
// trips, and restarts of a crash-safe server.
//
// -keys widens the submission pool to N distinct run configurations,
// and -zipf skews which keys are drawn (s > 1 selects a Zipf(s) law over
// the key ranks, the classic hot-key shape; 0 is uniform). After the run
// the tool scrapes the node's /metrics into a farm report: how many
// simulations actually executed versus how much work the memo, the disk
// cache and single-flight dedup answered instead.
//
// Tracked service numbers come from `go run ./bench` (the serve_mix
// workload), not from this tool.
//
// Usage:
//
//	fxload -url http://127.0.0.1:8080 -rps 800 -duration 10s -json load.json
//	fxload -url http://127.0.0.1:8080 -keys 32 -zipf 1.3 -rps 600 -duration 10s
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fxnet/internal/client"
	"fxnet/internal/version"
)

// opGen issues one request of its kind and reports the HTTP status.
type opGen struct {
	name   string
	weight float64
	do     func(rng *rand.Rand) (int, error)
}

// sample is one completed request.
type sample struct {
	op      string
	code    int
	latency time.Duration
	err     bool
}

// runBody is the cheap submission the load mix uses; identical
// configurations after the first are answered from the farm's memo (or
// the idempotency map), so the measured path is the service, not the
// simulator.
func runBody(seed int64) []byte {
	b, _ := json.Marshal(map[string]any{
		"program": "sor", "p": 4, "n": 32, "iters": 4, "seed": seed,
	})
	return b
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("fxload: ")
	var (
		base     = flag.String("url", "http://127.0.0.1:8080", "fxnetd base URL")
		rps      = flag.Float64("rps", 800, "offered request rate (open loop)")
		duration = flag.Duration("duration", 10*time.Second, "load duration")
		clients  = flag.Int("clients", 8, "distinct client identities (X-Client-ID values)")
		retries  = flag.Int("retries", 3, "attempts per idempotent request before recording the outcome")
		keys     = flag.Int("keys", 4, "distinct run configurations in the submission pool")
		zipfS    = flag.Float64("zipf", 0, "Zipf skew exponent over key ranks (0 or <=1 = uniform)")
		seed     = flag.Int64("seed", 1, "mix-selection seed")
		jsonOut  = flag.String("json", "", "write the report as JSON to this file")
		ver      = version.Register(flag.CommandLine)
	)
	flag.Parse()
	version.ExitIfRequested(ver)

	rep, err := drive(driveConfig{
		url:      *base,
		rps:      *rps,
		duration: *duration,
		clients:  *clients,
		retries:  *retries,
		keys:     *keys,
		zipfS:    *zipfS,
		seed:     *seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	rep.print(os.Stdout)
	if *jsonOut != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*jsonOut, append(b, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %s", *jsonOut)
	}
}

// report is the -json output shape.
type report struct {
	URL string `json:"url"`
	// Cores records the load generator's CPU count: achieved throughput
	// and latency quantiles are only comparable between hosts with the
	// same parallelism budget.
	Cores       int     `json:"cores"`
	TargetRPS   float64 `json:"target_rps"`
	AchievedRPS float64 `json:"achieved_rps"`
	DurationS   float64 `json:"duration_s"`
	Requests    int     `json:"requests"`
	Errors      int     `json:"errors"`
	Throttled   int     `json:"throttled"`
	Keys        int     `json:"keys"`
	ZipfS       float64 `json:"zipf_s,omitempty"`

	LatencyMs quantiles            `json:"latency_ms"`
	ByOp      map[string]opSummary `json:"by_op"`

	// Farm is the post-run /metrics view: what actually executed versus
	// what the memo, disk cache and dedup layers absorbed. Absent when the
	// scrape fails.
	Farm   *farmReport     `json:"farm,omitempty"`
	Server json.RawMessage `json:"server,omitempty"` // /healthz snapshot after the run
}

// farmReport is the node's farm counters after the run. ReuseRate is the
// headline number: the fraction of farm submissions that did NOT cost a
// simulation — answered by memo, disk cache, or single-flight dedup
// instead.
type farmReport struct {
	Submitted int64   `json:"submitted_total"`
	Executed  int64   `json:"executed_total"`
	CacheHits int64   `json:"cache_hits_total"`
	Deduped   int64   `json:"deduped_total"`
	ReuseRate float64 `json:"reuse_rate"`
}

type quantiles struct {
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P99 float64 `json:"p99"`
	Max float64 `json:"max"`
}

type opSummary struct {
	Requests  int       `json:"requests"`
	Errors    int       `json:"errors"`
	Throttled int       `json:"throttled"`
	LatencyMs quantiles `json:"latency_ms"`
}

func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "offered %.0f req/s for %.1fs -> achieved %.1f req/s (%d requests, %d errors, %d throttled)\n",
		r.TargetRPS, r.DurationS, r.AchievedRPS, r.Requests, r.Errors, r.Throttled)
	if f := r.Farm; f != nil && f.Submitted > 0 {
		fmt.Fprintf(w, "farm: %d submissions, %d executed, %d cache hits, %d deduped -> reuse %.1f%%\n",
			f.Submitted, f.Executed, f.CacheHits, f.Deduped, 100*f.ReuseRate)
	}
	fmt.Fprintf(w, "latency p50 %.2fms  p90 %.2fms  p99 %.2fms  max %.2fms\n",
		r.LatencyMs.P50, r.LatencyMs.P90, r.LatencyMs.P99, r.LatencyMs.Max)
	ops := make([]string, 0, len(r.ByOp))
	for op := range r.ByOp {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		s := r.ByOp[op]
		fmt.Fprintf(w, "  %-12s %6d req  %3d err  %3d throttled  p99 %.2fms\n",
			op, s.Requests, s.Errors, s.Throttled, s.LatencyMs.P99)
	}
}

// quantilesOf summarizes a non-empty latency sample.
func quantilesOf(durs []time.Duration) quantiles {
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	at := func(q float64) float64 {
		i := int(q * float64(len(durs)-1))
		return float64(durs[i].Microseconds()) / 1000
	}
	return quantiles{
		P50: at(0.50), P90: at(0.90), P99: at(0.99),
		Max: float64(durs[len(durs)-1].Microseconds()) / 1000,
	}
}

// driveConfig parameterizes one load run.
type driveConfig struct {
	url      string
	rps      float64
	duration time.Duration
	clients  int
	retries  int
	keys     int
	zipfS    float64
	seed     int64
}

func drive(cfg driveConfig) (*report, error) {
	total := int(cfg.rps * cfg.duration.Seconds())
	if cfg.rps <= 0 || total < 1 || cfg.clients < 1 || cfg.retries < 1 || cfg.keys < 1 {
		return nil, fmt.Errorf("-rps × -duration must offer at least one request, and -clients, -retries and -keys must be at least 1")
	}
	clients, retries, seed := cfg.clients, cfg.retries, cfg.seed
	httpc := &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        4 * clients * 16,
			MaxIdleConnsPerHost: 4 * clients * 16,
		},
	}
	// One retrying client; per-request identities rotate via an explicit
	// X-Client-ID header so ClientID stays unset.
	fx := &client.Client{
		Base: cfg.url,
		HTTP: httpc,
		Retry: client.Policy{
			MaxAttempts: retries,
			BaseDelay:   10 * time.Millisecond,
			MaxDelay:    250 * time.Millisecond,
			Deadline:    30 * time.Second,
		},
	}
	var reqSeq atomic.Int64
	hdr := func() http.Header {
		h := http.Header{}
		h.Set("X-Client-ID", fmt.Sprintf("fxload-%d", reqSeq.Add(1)%int64(clients)))
		return h
	}
	get := func(path string) (int, []byte, error) {
		resp, err := fx.Do(context.Background(), http.MethodGet, path, nil, hdr())
		if err != nil {
			return 0, nil, err
		}
		return resp.Status, resp.Body, nil
	}

	// drawSeed maps a goroutine's rng to a run-config seed in [1, keys].
	// With zipf > 1 the ranks follow a Zipf(s) law — seed 1 is the hot
	// key — the skew that probes tail latency behind one popular key.
	drawSeed := func(rng *rand.Rand) int64 {
		if cfg.zipfS > 1 && cfg.keys > 1 {
			z := rand.NewZipf(rng, cfg.zipfS, 1, uint64(cfg.keys-1))
			return 1 + int64(z.Uint64())
		}
		return 1 + rng.Int63n(int64(cfg.keys))
	}

	// Submitted run IDs feed the status-poll op; the warm-up below seeds
	// one run before any op is drawn, so polls always have a target.
	var (
		idMu   sync.Mutex
		runIDs []string
	)
	addID := func(id string) {
		idMu.Lock()
		runIDs = append(runIDs, id)
		idMu.Unlock()
	}
	pickID := func(rng *rand.Rand) string {
		idMu.Lock()
		defer idMu.Unlock()
		return runIDs[rng.Intn(len(runIDs))]
	}

	ops := []opGen{
		{"submit", 0.10, func(rng *rand.Rand) (int, error) {
			body := runBody(drawSeed(rng))
			h := hdr()
			h.Set(client.IdempotencyKeyHeader, client.IdempotencyKey(body))
			resp, err := fx.Do(context.Background(), http.MethodPost, "/v1/runs", body, h)
			if err != nil {
				return 0, err
			}
			if resp.Status == http.StatusAccepted {
				var acc client.Accepted
				if json.Unmarshal(resp.Body, &acc) == nil && acc.ID != "" {
					addID(acc.ID)
				}
			}
			return resp.Status, nil
		}},
		{"status", 0.30, func(rng *rand.Rand) (int, error) {
			code, _, err := get("/v1/runs/" + pickID(rng))
			return code, err
		}},
		{"negotiate", 0.20, func(rng *rand.Rand) (int, error) {
			progs := []string{"sor", "2dfft", "seq", "hist"}
			body, _ := json.Marshal(map[string]any{
				"program": progs[rng.Intn(len(progs))], "dry_run": true,
			})
			// Dry-run negotiations commit nothing, so a content key makes
			// them retry-safe too.
			h := hdr()
			h.Set(client.IdempotencyKeyHeader, client.IdempotencyKey(body))
			resp, err := fx.Do(context.Background(), http.MethodPost, "/v1/qos/negotiate", body, h)
			if err != nil {
				return 0, err
			}
			return resp.Status, nil
		}},
		{"commitments", 0.10, func(rng *rand.Rand) (int, error) {
			code, _, err := get("/v1/qos/commitments")
			return code, err
		}},
		{"healthz", 0.30, func(rng *rand.Rand) (int, error) {
			code, _, err := get("/healthz")
			return code, err
		}},
	}

	// Warm up through the retrying client: one run submitted and executed
	// so status polls and the submit op's duplicates hit a memoized
	// result. Submit is keyed, so this survives a server that is still
	// replaying its journal. Key 1 is the hot key under Zipf skew, so
	// warming it mirrors the steady state the run measures.
	warmCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	acc, err := fx.Submit(warmCtx, runBody(1))
	if err != nil {
		return nil, fmt.Errorf("warm-up submit: %w", err)
	}
	addID(acc.ID)
	st, err := fx.WaitDone(warmCtx, acc.ID, 10*time.Millisecond)
	if err != nil {
		return nil, fmt.Errorf("warm-up poll: %w", err)
	}
	if st.State != "done" {
		return nil, fmt.Errorf("warm-up run ended %s (%s)", st.State, st.RunError)
	}

	// Open loop: a fixed-rate clock launches each request in its own
	// goroutine; completions never slow the offered rate.
	var (
		mu      sync.Mutex
		samples []sample
		wg      sync.WaitGroup
	)
	interval := time.Duration(float64(time.Second) / cfg.rps)
	rngSrc := rand.New(rand.NewSource(seed))
	// Pre-draw the op sequence so the hot loop only launches goroutines.
	plan := make([]*opGen, total)
	for i := range plan {
		x := rngSrc.Float64()
		acc := 0.0
		plan[i] = &ops[len(ops)-1]
		for k := range ops {
			acc += ops[k].weight
			if x < acc {
				plan[i] = &ops[k]
				break
			}
		}
	}

	start := time.Now()
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for i := 0; i < total; i++ {
		<-ticker.C
		op := plan[i]
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(i)))
			t0 := time.Now()
			code, err := op.do(rng)
			s := sample{op: op.name, code: code, latency: time.Since(t0), err: err != nil}
			mu.Lock()
			samples = append(samples, s)
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := &report{
		URL:       cfg.url,
		Cores:     runtime.NumCPU(),
		TargetRPS: cfg.rps,
		DurationS: elapsed.Seconds(),
		Requests:  len(samples),
		Keys:      cfg.keys,
		ZipfS:     cfg.zipfS,
		ByOp:      make(map[string]opSummary),
	}
	rep.AchievedRPS = float64(len(samples)) / elapsed.Seconds()
	var all []time.Duration
	byOp := map[string][]time.Duration{}
	for _, s := range samples {
		all = append(all, s.latency)
		byOp[s.op] = append(byOp[s.op], s.latency)
		sum := rep.ByOp[s.op]
		sum.Requests++
		if s.err || s.code >= 500 {
			rep.Errors++
			sum.Errors++
		}
		if s.code == http.StatusTooManyRequests {
			rep.Throttled++
			sum.Throttled++
		}
		rep.ByOp[s.op] = sum
	}
	rep.LatencyMs = quantilesOf(all)
	for op, durs := range byOp {
		sum := rep.ByOp[op]
		sum.LatencyMs = quantilesOf(durs)
		rep.ByOp[op] = sum
	}

	rep.Farm = scrapeFarm(get)
	if code, body, err := get("/healthz"); err == nil && code == http.StatusOK {
		rep.Server = json.RawMessage(body)
	}
	return rep, nil
}

// scrapeFarm reads the node's /metrics after the run into the reuse
// picture; nil when the scrape fails.
func scrapeFarm(get func(string) (int, []byte, error)) *farmReport {
	code, body, err := get("/metrics")
	if err != nil || code != http.StatusOK {
		return nil
	}
	f := &farmReport{
		Submitted: int64(metricValue(body, `fxnetd_farm_submitted_total`)),
		Executed:  int64(metricValue(body, `fxnetd_farm_executed_total`)),
		CacheHits: int64(metricValue(body, `fxnetd_farm_cache_hits_total`)),
		Deduped:   int64(metricValue(body, `fxnetd_farm_deduped_total`)),
	}
	if f.Submitted > 0 {
		f.ReuseRate = 1 - float64(f.Executed)/float64(f.Submitted)
	}
	return f
}

// metricValue extracts one sample (exact name, including any label set)
// from a Prometheus text exposition; absent metrics read as 0.
func metricValue(body []byte, name string) float64 {
	for _, line := range strings.Split(string(body), "\n") {
		rest, ok := strings.CutPrefix(line, name)
		if !ok || !strings.HasPrefix(rest, " ") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err == nil {
			return v
		}
	}
	return 0
}
