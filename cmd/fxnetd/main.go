// Command fxnetd serves the reproduction's measurement pipeline as a
// long-running daemon: an asynchronous run queue over the experiment
// farm, NDJSON result streaming, and the paper's §7.3 QoS admission
// broker, with a Prometheus /metrics surface, /debug/pprof, liveness and
// readiness probes, per-client backpressure, and graceful drain on
// SIGTERM.
//
// With -journal the node is crash-safe: every acknowledged submission,
// terminal job state, and QoS grant/release is fsync'd to an
// append-only checksummed log before the response goes out, and boot
// replays it — pending jobs re-enqueue, completed jobs answer from the
// run cache, admissions restore the capacity ledger, and a torn tail is
// truncated, not fatal.
//
// Usage:
//
//	fxnetd -addr :8080 -j 8 -cache .fxcache -journal .fxcache/journal.wal
//	fxnetd -addr 127.0.0.1:0 -portfile /tmp/fxnetd.port   # ephemeral port
//	fxnetd -journal .fxcache/journal.wal -replay          # offline self-check
//
// Endpoints:
//
//	POST   /v1/runs                   submit a run (202 + id)
//	GET    /v1/runs/{id}              poll status
//	DELETE /v1/runs/{id}              cancel a queued run
//	GET    /v1/runs/{id}/trace        stream the trace (NDJSON; ?format=bin)
//	GET    /v1/runs/{id}/spectrum     stream the spectrum (?conn=1)
//	POST   /v1/models/fit             fit a spectral model (async, 202 + id)
//	GET    /v1/models                 list fitted models (?program=&p=)
//	GET    /v1/models/{key}           fetch one fitted model
//	POST   /v1/qos/negotiate          QoS admission broker (source=catalog
//	                                  answers from fitted models)
//	GET    /v1/qos/commitments        outstanding commitments
//	DELETE /v1/qos/commitments/{id}   release a commitment
//	GET    /metrics, /healthz (liveness), /readyz (readiness), /debug/pprof/
//
// On SIGTERM or SIGINT the daemon flips /readyz to not-ready, stops
// accepting submissions, waits for in-flight simulations and streaming
// responses (bounded by -drain-timeout), and exits 0. A SIGTERM during
// journal replay aborts the replay cleanly; un-replayed records stay in
// the journal for the next boot.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"fxnet/internal/journal"
	"fxnet/internal/server"
	"fxnet/internal/version"
)

func main() {
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)
	log.SetPrefix("fxnetd: ")
	var (
		addr       = flag.String("addr", ":8080", "listen address (port 0 = ephemeral)")
		portfile   = flag.String("portfile", "", "write the actual listen port to this file (for ephemeral ports)")
		workers    = flag.Int("j", 0, "concurrent simulations (0 = GOMAXPROCS)")
		cache      = flag.String("cache", "", "content-addressed run-cache directory (e.g. .fxcache)")
		catDir     = flag.String("catalog", "", "spectral-model catalog directory (default <cache>/models; empty without -cache disables /v1/models)")
		jpath      = flag.String("journal", "", "durable job journal path (empty = no crash safety)")
		replayOnly = flag.Bool("replay", false, "self-check: replay and verify the journal, print a summary, exit")
		capacity   = flag.Float64("capacity", 0, "QoS broker capacity in bytes/s (0 = calibrated shared-segment default)")
		maxP       = flag.Int("maxp", 0, "QoS processor search bound (0 = 32)")
		climit     = flag.Int("client-limit", 16, "max in-flight API requests per client (0 = unlimited)")
		maxQueue   = flag.Int("max-queue", 0, "farm queue depth where load shedding begins (0 = 256)")
		drainTO    = flag.Duration("drain-timeout", 10*time.Minute, "max time to wait for in-flight work on shutdown")

		memoEntries = flag.Int("memo-entries", 0, "max in-memory memoized results (0 = unbounded)")
		memoBytes   = flag.Int64("memo-bytes", 0, "max estimated bytes of in-memory memoized results (0 = unbounded)")
		ver         = version.Register(flag.CommandLine)
	)
	flag.Parse()
	version.ExitIfRequested(ver)

	if *replayOnly {
		if err := replayCheck(*jpath); err != nil {
			log.Fatal(err)
		}
		return
	}
	opts := server.Options{
		Workers:        *workers,
		CacheDir:       *cache,
		CatalogDir:     *catDir,
		Memoize:        true,
		MemoMaxEntries: *memoEntries,
		MemoMaxBytes:   *memoBytes,
		CapacityBps:    *capacity,
		MaxP:           *maxP,
		ClientLimit:    *climit,
		JournalPath:    *jpath,
		MaxQueue:       *maxQueue,
		Log:            log.Default(),
	}
	if err := run(*addr, *portfile, opts, *drainTO); err != nil {
		log.Fatal(err)
	}
}

// replayCheck is the offline self-check behind -replay: open the
// journal (truncating any torn tail exactly as a booting server would),
// fold the records, and print what a recovery from this log would
// restore. Exit status 0 means the journal is usable.
func replayCheck(path string) error {
	if path == "" {
		return errors.New("-replay requires -journal")
	}
	counts := map[journal.Op]int{}
	j, st, err := journal.Open(path, journal.Options{}, func(r journal.Record) error {
		counts[r.Op]++
		return nil
	})
	if err != nil {
		return fmt.Errorf("journal self-check failed: %w", err)
	}
	defer j.Close()
	fmt.Printf("journal %s: %d records ok\n", path, st.Records)
	for _, op := range []journal.Op{journal.OpSubmitted, journal.OpTerminal, journal.OpGrant, journal.OpRelease} {
		fmt.Printf("  %-10s %d\n", op.String(), counts[op])
	}
	pending := counts[journal.OpSubmitted] - counts[journal.OpTerminal]
	if pending < 0 {
		pending = 0
	}
	fmt.Printf("  pending    ≤ %d job(s) would re-enqueue on boot\n", pending)
	if st.TruncatedBytes > 0 {
		fmt.Printf("  truncated  %d torn-tail byte(s) dropped (%s)\n", st.TruncatedBytes, st.TruncateReason)
	}
	return nil
}

func run(addr, portfile string, opts server.Options, drainTO time.Duration) error {
	s, err := server.New(opts)
	if err != nil {
		return err
	}
	defer s.Close()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if portfile != "" {
		_, port, err := net.SplitHostPort(ln.Addr().String())
		if err != nil {
			return err
		}
		if err := os.WriteFile(portfile, []byte(port+"\n"), 0o644); err != nil {
			return err
		}
	}

	hs := &http.Server{Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	log.Printf("%s listening on %s (workers=%d cache=%q journal=%q)",
		version.String(), ln.Addr(), s.Workers(), opts.CacheDir, opts.JournalPath)

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)

	// Replay the journal before declaring readiness. The HTTP surface is
	// already up — liveness, readiness, and metrics answer during replay
	// — but submissions are refused until recovery finishes. A signal
	// during replay aborts it; replayed-but-unfinished jobs drain below.
	rctx, rcancel := context.WithCancel(context.Background())
	go func() {
		select {
		case sig := <-sigc:
			rcancel()
			// Re-deliver so the main select below sees the shutdown too.
			select {
			case sigc <- sig:
			default:
			}
		case <-rctx.Done():
		}
	}()
	if err := s.Recover(rctx); err != nil {
		log.Printf("recovery aborted: %v", err)
	} else {
		log.Printf("ready")
	}
	rcancel()

	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		log.Printf("%v: draining (timeout %v)", sig, drainTO)
	}

	// Readiness off first (load balancers stop routing), then stop
	// accepting, close idle connections, and let in-flight simulations
	// and streaming responses finish before exiting.
	s.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), drainTO)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if err := s.Drain(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	log.Print("drained, exiting")
	return nil
}
