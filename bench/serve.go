package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"fxnet/internal/client"
	"fxnet/internal/server"
	"fxnet/internal/stats"
)

// serve_mix drives an in-process fxnetd — server, farm and its cache
// tiers, fsync'd journal, model catalog, admission broker — through
// internal/client over a loopback listener. The simulator does almost
// none of the work: the pre-warmed key set is four times the memo cap,
// so replayed and re-posted keys land on every cache tier, and only the
// 5 % cold class executes anything.

const (
	memoCap     = 16   // farm memo entries; the working set is 4× this
	zipfS       = 1.3  // key popularity skew
	serveSetups = 5    // set-ups per run; setup_s is their median
	coldBase    = 1000 // cold seeds start above every pre-warmed key
)

func serveKeys(scale string) int {
	if scale == scaleSmoke {
		return 8
	}
	return 4 * memoCap
}

// mixBlock is the traffic mix: every twenty iterations of a client are
// ten replays, five tier jobs, one cold job and four admissions, in an
// order its seed shuffles. Exact shares, not drawn ones, keep the
// simulator's (expensive, cold-only) part of the load the same from
// seed to seed.
var mixBlock = [20]int{
	classReplay, classReplay, classReplay, classReplay, classReplay,
	classReplay, classReplay, classReplay, classReplay, classReplay,
	classTier, classTier, classTier, classTier, classTier,
	classCold,
	classAdmit, classAdmit, classAdmit, classAdmit,
}

// Job classes and the request kinds they are made of.
const (
	classReplay = iota
	classTier
	classCold
	classAdmit
	numClasses
)

var className = [numClasses]string{"job_replay", "job_tier", "job_cold", "admit"}

// jobClasses are the classes that end with a spectrum in hand.
var jobClasses = []int{classReplay, classTier, classCold}

const (
	opSubmit = iota
	opPoll
	opSpectrum
	opNegotiate
	opRelease
	numOps
)

var opName = [numOps]string{"submit", "poll", "spectrum", "negotiate", "release"}

func runBody(seed int64) []byte {
	b, _ := json.Marshal(map[string]any{"program": "sor", "p": 4, "n": 32, "iters": 4, "seed": seed})
	return b
}

// serveEnv is one booted daemon with its pre-warmed state.
type serveEnv struct {
	dir     string
	srv     *server.Server
	httpSrv *http.Server
	served  chan error
	base    string
	// spectra maps a pre-warmed seed to the SHA-256 of its spectrum
	// stream: every later answer for that key, from any tier, must be
	// the same bytes.
	spectra map[int64][32]byte
}

// boot starts a server over dir and replays its journal.
func boot(dir string) (*serveEnv, error) {
	e := &serveEnv{dir: dir, spectra: map[int64][32]byte{}}
	srv, err := server.New(server.Options{
		Workers:        1,
		CacheDir:       filepath.Join(dir, "cache"),
		Memoize:        true,
		MemoMaxEntries: memoCap,
		JournalPath:    filepath.Join(dir, "journal"),
	})
	if err != nil {
		return nil, err
	}
	if err := srv.Recover(context.Background()); err != nil {
		srv.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	e.srv = srv
	e.base = "http://" + ln.Addr().String()
	e.httpSrv = &http.Server{Handler: srv.Handler()}
	e.served = make(chan error, 1)
	go func() { e.served <- e.httpSrv.Serve(ln) }()
	return e, nil
}

// stop shuts the listener, drains the job queue and closes the journal;
// the state directory stays for a later boot.
func (e *serveEnv) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := e.httpSrv.Shutdown(ctx)
	if serr := <-e.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	e.srv.BeginDrain()
	err = errors.Join(err, e.srv.Drain(ctx), e.srv.Close())
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	return err
}

// serveSetup is everything before the first timed operation: boot the
// daemon over a fresh directory (under o.tmp, which goes when the pass
// ends), replay its empty journal, pre-warm the key set, and fit the
// catalog models admission answers from.
func serveSetup(o options) (*serveEnv, error) {
	dir, err := os.MkdirTemp(o.tmp, "serve")
	if err != nil {
		return nil, err
	}
	e, err := boot(dir)
	if err != nil {
		return nil, err
	}
	if err := e.prewarm(serveKeys(o.scale)); err != nil {
		return nil, errors.Join(err, e.stop())
	}
	return e, nil
}

func (e *serveEnv) prewarm(keys int) error {
	ctx := context.Background()
	c := client.New(e.base)
	c.ClientID = "bench-setup"
	for seed := int64(1); seed <= int64(keys); seed++ {
		acc, err := c.Submit(ctx, runBody(seed))
		if err != nil {
			return err
		}
		st, err := c.WaitDone(ctx, acc.ID, time.Millisecond)
		if err != nil {
			return err
		}
		if st.State != "done" {
			return fmt.Errorf("pre-warm seed %d: job %s", seed, st.State)
		}
		resp, err := c.Do(ctx, http.MethodGet, "/v1/runs/"+acc.ID+"/spectrum", nil, http.Header{})
		if err != nil {
			return err
		}
		if resp.Status != http.StatusOK || len(resp.Body) == 0 {
			return fmt.Errorf("pre-warm seed %d: spectrum status %d", seed, resp.Status)
		}
		e.spectra[seed] = sha256.Sum256(resp.Body)
	}
	// Catalog-backed admission tabulates the fitted models by processor
	// count; three points give the broker a real search. The fitted runs
	// are longer than the pre-warmed ones: ten iterations is the least
	// that leaves a spectral spike to admit from.
	for _, p := range []int{2, 4, 8} {
		body, _ := json.Marshal(map[string]any{"program": "sor", "p": p, "n": 64, "iters": 10, "seed": 1})
		acc, err := c.FitModel(ctx, body)
		if err != nil {
			return err
		}
		st, err := c.WaitDone(ctx, acc.ID, time.Millisecond)
		if err != nil {
			return err
		}
		if st.State != "done" {
			return fmt.Errorf("fit p=%d: job %s", p, st.State)
		}
	}
	return nil
}

// loadStats is what one closed-loop client measured.
type loadStats struct {
	attempted, failed int
	classMS           [numClasses][]float64 // per-iteration latency
	opUS              [numOps][]float64     // per-request latency
	jobs, polls       int
	retries           int
}

func (s *loadStats) merge(t *loadStats) {
	s.attempted += t.attempted
	s.failed += t.failed
	for i := range s.classMS {
		s.classMS[i] = append(s.classMS[i], t.classMS[i]...)
	}
	for i := range s.opUS {
		s.opUS[i] = append(s.opUS[i], t.opUS[i]...)
	}
	s.jobs += t.jobs
	s.polls += t.polls
	s.retries += t.retries
}

// jobMS is the latency of the three job classes together.
func (s *loadStats) jobMS() []float64 {
	var all []float64
	for _, c := range jobClasses {
		all = append(all, s.classMS[c]...)
	}
	return all
}

// loadClient is one closed-loop caller: it sends its next request only
// after the previous reply, as every user of client.Submit/WaitDone does.
type loadClient struct {
	id     int
	env    *serveEnv
	c      *client.Client
	rng    *rand.Rand
	zipf   *rand.Zipf
	rec    *recorder
	stats  loadStats
	block  [len(mixBlock)]int // this client's current shuffle of mixBlock
	colds  int64
	coldAt int64
}

func newLoadClient(env *serveEnv, o options, id int) *loadClient {
	rng := rand.New(rand.NewSource(o.seed*1000 + int64(id)))
	c := client.New(env.base)
	c.ClientID = fmt.Sprintf("bench-%d", id)
	return &loadClient{
		id: id, env: env, c: c, rng: rng, block: mixBlock,
		zipf: rand.NewZipf(rng, zipfS, 1, uint64(serveKeys(o.scale)-1)),
		// Cold seeds follow the run seed, are unique per client, and
		// never collide with a pre-warmed key.
		coldAt: coldBase + o.seed*10_000_000 + int64(id)*100_000,
	}
}

// do issues one request as a child span of the current iteration.
func (l *loadClient) do(parent, iter, op int, method, path string, body []byte, keyed bool) (*client.Response, error) {
	hdr := http.Header{}
	if keyed {
		hdr.Set(client.IdempotencyKeyHeader, client.IdempotencyKey(body))
	}
	var resp *client.Response
	var err error
	d := l.rec.stage("server."+opName[op], parent, iter, func() {
		resp, err = l.c.Do(context.Background(), method, path, body, hdr)
	})
	l.stats.opUS[op] = append(l.stats.opUS[op], float64(d)/float64(time.Microsecond))
	if err == nil {
		l.stats.retries += resp.Attempts - 1
	}
	return resp, err
}

// job submits body, polls until the run is done and fetches its
// spectrum. wantSum, when non-nil, is the digest the spectrum must have.
func (l *loadClient) job(parent, iter int, body []byte, keyed bool, wantSum *[32]byte, wantExecuted bool) error {
	resp, err := l.do(parent, iter, opSubmit, http.MethodPost, "/v1/runs", body, keyed)
	if err != nil {
		return err
	}
	if resp.Status != http.StatusAccepted {
		return fmt.Errorf("submit: status %d", resp.Status)
	}
	var acc client.Accepted
	if err := json.Unmarshal(resp.Body, &acc); err != nil || acc.ID == "" {
		return fmt.Errorf("submit: bad accept payload %q", resp.Body)
	}
	l.stats.jobs++
	wait := 200 * time.Microsecond
	for {
		resp, err := l.do(parent, iter, opPoll, http.MethodGet, "/v1/runs/"+acc.ID, nil, false)
		if err != nil {
			return err
		}
		l.stats.polls++
		var st client.Status
		if resp.Status != http.StatusOK || json.Unmarshal(resp.Body, &st) != nil {
			return fmt.Errorf("poll: status %d", resp.Status)
		}
		if st.State == "done" {
			if wantExecuted && (st.Cached || st.Deduped) {
				return fmt.Errorf("cold job %s was answered from a cache", acc.ID)
			}
			break
		}
		if st.State != "queued" {
			return fmt.Errorf("job %s %s", acc.ID, st.State)
		}
		l.rec.stage("client.poll_wait", parent, iter, func() { time.Sleep(wait) })
		if wait < 5*time.Millisecond {
			wait *= 2
		}
	}
	resp, err = l.do(parent, iter, opSpectrum, http.MethodGet, "/v1/runs/"+acc.ID+"/spectrum", nil, false)
	if err != nil {
		return err
	}
	if resp.Status != http.StatusOK || len(resp.Body) == 0 {
		return fmt.Errorf("spectrum: status %d, %d bytes", resp.Status, len(resp.Body))
	}
	if wantSum != nil && sha256.Sum256(resp.Body) != *wantSum {
		return fmt.Errorf("spectrum of job %s differs from the pre-warmed bytes", acc.ID)
	}
	return nil
}

func (l *loadClient) admit(parent, iter int) error {
	body, _ := json.Marshal(server.NegotiateRequest{Program: "sor", Source: "catalog", Client: l.c.ClientID})
	resp, err := l.do(parent, iter, opNegotiate, http.MethodPost, "/v1/qos/negotiate", body, false)
	if err != nil {
		return err
	}
	var out struct {
		Offer server.OfferJSON `json:"offer"`
	}
	if resp.Status != http.StatusOK || json.Unmarshal(resp.Body, &out) != nil || out.Offer.ID == 0 {
		return fmt.Errorf("negotiate: status %d: %s", resp.Status, resp.Body)
	}
	resp, err = l.do(parent, iter, opRelease, http.MethodDelete, "/v1/qos/commitments/"+strconv.Itoa(out.Offer.ID), nil, false)
	if err != nil {
		return err
	}
	if resp.Status != http.StatusOK {
		return fmt.Errorf("release %d: status %d", out.Offer.ID, resp.Status)
	}
	return nil
}

// loop runs iterations until the deadline.
func (l *loadClient) loop(deadline time.Time) {
	for iter := 0; time.Now().Before(deadline); iter++ {
		spanID := l.id*10_000_000 + iter
		if iter%len(mixBlock) == 0 {
			l.rng.Shuffle(len(l.block), func(i, j int) { l.block[i], l.block[j] = l.block[j], l.block[i] })
		}
		class := l.block[iter%len(mixBlock)]
		root := l.rec.begin(className[class], -1, spanID)
		t0 := time.Now()
		var err error
		switch class {
		case classReplay, classTier:
			seed := int64(l.zipf.Uint64()) + 1
			sum := l.env.spectra[seed]
			err = l.job(root, spanID, runBody(seed), class == classReplay, &sum, false)
		case classCold:
			l.colds++
			err = l.job(root, spanID, runBody(l.coldAt+l.colds), true, nil, true)
		case classAdmit:
			err = l.admit(root, spanID)
		}
		l.stats.classMS[class] = append(l.stats.classMS[class], seconds(t0)*1e3)
		l.rec.end(root)
		l.stats.attempted++
		if err != nil {
			l.stats.failed++
			if l.stats.failed <= 3 {
				fmt.Printf("serve_mix: client %d %s: %v\n", l.id, className[class], err)
			}
		}
	}
}

func loadClients() int { return min(runtime.NumCPU(), 4) }

// drive runs the closed loop for d and returns the merged statistics
// and the wall time it took.
func drive(env *serveEnv, o options, d time.Duration, rec *recorder, phase int) (*loadStats, float64) {
	clients := make([]*loadClient, loadClients())
	for i := range clients {
		// Distinct phases of one run must not repeat cold seeds.
		clients[i] = newLoadClient(env, o, phase*loadClients()+i)
		clients[i].rec = rec
	}
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for _, l := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.loop(deadline)
		}()
	}
	wg.Wait()
	elapsed := seconds(start)
	total := &loadStats{}
	for _, l := range clients {
		total.merge(&l.stats)
	}
	return total, elapsed
}

// runServe is the untraced pass.
func runServe(o options) (*passResult, error) {
	var env *serveEnv
	var setups []float64
	var retained float64
	for i := 0; i < serveSetups; i++ {
		if env != nil {
			if err := env.stop(); err != nil {
				return nil, err
			}
			env = nil
			// What the stopped daemons leave behind is sampled here, after
			// a fixed amount of work (every set-up executes the same
			// runs), not after the timed loop, whose cold-job count
			// follows the host's speed.
			runtime.GC()
			runtime.GC()
			retained = heapAllocMB()
		}
		t0 := time.Now()
		var err error
		if env, err = serveSetup(o); err != nil {
			return nil, err
		}
		setups = append(setups, seconds(t0))
	}

	st, elapsed := drive(env, o, o.seconds, nil, 0)
	if err := env.stop(); err != nil {
		return nil, err
	}

	pr := &passResult{attempted: st.attempted, failed: st.failed, metrics: metricSet{}}
	m := pr.metrics
	m.setSamples("setup_s", setups)
	jobS := st.jobMS()
	for i := range jobS {
		jobS[i] /= 1e3
	}
	m.setSamples("run_s", jobS)
	m.set("jobs_per_s", float64(st.attempted)/elapsed)
	m.set("retained_mb", retained)
	pr.serveLatencies(st)
	return pr, nil
}

// serveLatencies states the service-side figures a client sees.
func (pr *passResult) serveLatencies(st *loadStats) {
	job, admit := st.jobMS(), st.classMS[classAdmit]
	pr.infof("job_p50_ms", median(job), "ms", "n=%d, %d closed-loop clients", len(job), loadClients())
	pr.infof("job_p99_ms", stats.Quantile(job, 0.99), "ms", "n=%d, %d samples beyond it", len(job), len(job)/100)
	pr.infof("admit_p50_us", median(admit)*1e3, "us", "n=%d, negotiate-commit to release", len(admit))
}

// runServeTraced is the traced pass: half of -seconds under load, a
// quarter of it with spans and the CPU profile on.
func runServeTraced(o options) (*passResult, *recorder, error) {
	env, err := serveSetup(o)
	if err != nil {
		return nil, nil, err
	}
	// U T U: the untraced eighths bracket the traced quarter, so the
	// daemon's drift over the pass (its heap grows with every cold job)
	// falls on both sides of the overhead ratio alike.
	eighth := o.seconds / 8
	base, _ := drive(env, o, eighth, nil, 0)
	rec := newRecorder()
	var profile bytes.Buffer
	if err := pprof.StartCPUProfile(&profile); err != nil {
		return nil, nil, err
	}
	st, _ := drive(env, o, 2*eighth, rec, 1)
	pprof.StopCPUProfile()
	after, _ := drive(env, o, eighth, nil, 2)
	base.merge(after)

	scrape, err := client.New(env.base).Do(context.Background(), http.MethodGet, "/metrics", nil, http.Header{})
	if err != nil {
		return nil, nil, err
	}
	if err := env.stop(); err != nil {
		return nil, nil, err
	}

	pr := &passResult{
		attempted: base.attempted + st.attempted,
		failed:    base.failed + st.failed,
		metrics:   metricSet{},
	}
	m := pr.metrics
	for _, c := range jobClasses {
		m.setSamples("server."+className[c]+"_p50_ms", st.classMS[c])
	}
	for op := 0; op < numOps; op++ {
		m.setSamples("server."+opName[op]+"_p50_us", st.opUS[op])
	}
	jobs := float64(max(st.jobs+base.jobs, 1))
	m.set("client.polls_per_job", float64(st.polls+base.polls)/jobs)
	m.set("client.retries", float64(st.retries+base.retries))
	// The farm counters cover the whole life of the daemon, pre-warm
	// included; they are stated per job it completed.
	completed := promValue(scrape.Body, "fxnetd_farm_completed_total")
	if completed == 0 {
		return nil, nil, fmt.Errorf("metrics scrape found no completed farm jobs")
	}
	for metric, prom := range map[string]string{
		"farm.executed":     "fxnetd_farm_executed_total",
		"farm.cache_hits":   "fxnetd_farm_cache_hits_total",
		"farm.deduped":      "fxnetd_farm_deduped_total",
		"farm.memo_evicted": "fxnetd_farm_memo_evicted_total",
	} {
		m.set(metric, promValue(scrape.Body, prom)/completed)
	}
	job := st.jobMS()
	m.set("harness.job_p50_ms", median(job))
	m.set("harness.job_p99_ms", stats.Quantile(job, 0.99))
	m.set("harness.admit_p50_us", median(st.classMS[classAdmit])*1e3)
	m.set("harness.trace_overhead", median(job)/median(base.jobMS()))
	m.set("harness.span_coverage", rec.coverage())
	if err := setCPUShares(m, profile.Bytes()); err != nil {
		return nil, nil, err
	}

	// Reboot over the journal the load just wrote: replay, re-enqueue,
	// answer every done job from the cache.
	t0 := time.Now()
	again, err := boot(env.dir)
	if err != nil {
		return nil, nil, err
	}
	m.set("server.recover_s", seconds(t0))
	if err := again.stop(); err != nil {
		return nil, nil, err
	}
	return pr, rec, nil
}

// promValue reads one unlabelled sample from a Prometheus text scrape.
func promValue(scrape []byte, name string) float64 {
	for _, line := range strings.Split(string(scrape), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, _ := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			return v
		}
	}
	return 0
}
