package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"time"

	"fxnet/internal/airshed"
	"fxnet/internal/analysis"
	"fxnet/internal/core"
	"fxnet/internal/dsp"
	"fxnet/internal/farm"
	"fxnet/internal/kernels"
	"fxnet/internal/model"
	"fxnet/internal/trace"
)

// The three simulation workloads run the researcher's pipeline —
// RunConfig in, fitted spectral model out — over three different paths
// through the stack. Each stage is one call into a layer's public API.

const (
	topo64 = "lan0:0-15~2ms,lan1:16-31~2ms,lan2:32-47~100us,lan3:48-63~2ms"
	topo8  = "lan0:0-3~2ms,lan1:4-7~100us"

	fitSpikes = 8 // catalog.DefaultSpikes: the k the service fits with
)

// simConfig builds the workload's input. Stream workloads fold the
// characterization during the run and keep no trace.
func simConfig(workload, scale string, seed int64) (cfg core.RunConfig, stream bool, err error) {
	smoke := scale == scaleSmoke
	switch workload {
	case "wire_seq":
		p := kernels.Params{N: 256, Iters: 5}
		if smoke {
			p.N = 24
		}
		return core.RunConfig{Program: "seq", P: 4, Params: p, Seed: seed}, false, nil
	case "compute_airshed":
		ap := airshed.PaperParams()
		ap.Hours = 20
		if smoke {
			ap.Hours = 1
		}
		return core.RunConfig{Program: core.Airshed, AirshedParams: ap, Seed: seed}, true, nil
	case "fabric_topo64":
		spec, hosts, p := topo64, 64, kernels.Params{N: 256, Iters: 20}
		if smoke {
			spec, hosts, p = topo8, 8, kernels.Params{N: 64, Iters: 4}
		}
		topo, err := core.ParseTopology(spec)
		if err != nil {
			return core.RunConfig{}, false, err
		}
		return core.RunConfig{Program: "2dfft", P: hosts, Params: p, Seed: seed, Topology: topo}, false, nil
	}
	return core.RunConfig{}, false, fmt.Errorf("no simulation workload %q", workload)
}

// outputs are the exact products of one repetition: they must repeat
// across repetitions and, on pinned seeds, equal expected.json.
type outputs struct {
	Digest string             `json:"digest"`
	Counts map[string]float64 `json:"counts"`
}

func (o outputs) equal(p outputs) bool {
	if o.Digest != p.Digest || len(o.Counts) != len(p.Counts) {
		return false
	}
	for k, v := range o.Counts {
		if pv, ok := p.Counts[k]; !ok || pv != v {
			return false
		}
	}
	return true
}

// repResult is one pipeline repetition: stage times, exact outputs, and
// the products (kept so the traced pass can measure what they hold).
type repResult struct {
	run, sim, enc, dec, char, fit time.Duration
	packets                       int
	encodedBytes                  int
	aggKBps                       float64
	out                           outputs

	res     *core.Result
	decoded *trace.Trace
	rep     *core.Report
}

// pipeline runs one repetition. Hashing the encoded trace is the
// benchmark's check, not the pipeline's work, so it happens after the
// repetition's clock stops.
func pipeline(cfg core.RunConfig, stream bool, opts core.RunOpts, rec *recorder, repID int) (*repResult, error) {
	r := &repResult{}
	root := rec.begin("rep", -1, repID)
	var err error
	var encoded bytes.Buffer
	if stream {
		r.sim = rec.stage("core.run", root, repID, func() {
			r.res, r.rep, err = core.RunStreamWithOpts(cfg, opts)
		})
		if err != nil {
			return nil, err
		}
		r.packets = int(r.rep.AggSize.N)
	} else {
		r.sim = rec.stage("core.run", root, repID, func() {
			r.res, err = core.RunWithOpts(cfg, opts)
		})
		if err != nil {
			return nil, err
		}
		r.enc = rec.stage("trace.encode", root, repID, func() {
			err = r.res.Trace.WriteBinary(&encoded)
		})
		if err != nil {
			return nil, err
		}
		r.dec = rec.stage("trace.decode", root, repID, func() {
			r.decoded, err = trace.ReadBinary(bytes.NewReader(encoded.Bytes()))
		})
		if err != nil {
			return nil, err
		}
		r.char = rec.stage("analysis.characterize", root, repID, func() {
			r.rep = analysis.CharacterizeTrace(r.decoded, cfg.Program, r.res.RepConn)
		})
		r.packets = r.decoded.Len()
		r.encodedBytes = encoded.Len()
	}
	var met model.FitMetrics
	r.fit = rec.stage("model.fit", root, repID, func() {
		_, met = model.Fit(r.rep.AggSeries, r.rep.SeriesDT, fitSpikes, 0)
	})
	rec.end(root)
	r.aggKBps = r.rep.AggKBps
	r.run = r.sim + r.enc + r.dec + r.char + r.fit

	r.out, err = outputsOf(r, stream, encoded.Bytes(), met.NRMSE)
	if err != nil {
		return nil, err
	}
	return r, nil
}

// outputsOf digests a repetition's products. It runs after the
// repetition's clock has stopped, and the CPU profile charges every
// sample under it to the harness, whichever package does the hashing.
func outputsOf(r *repResult, stream bool, encoded []byte, nrmse float64) (outputs, error) {
	var sum [32]byte
	if stream {
		b, err := farm.MarshalReport(r.rep)
		if err != nil {
			return outputs{}, err
		}
		sum = sha256.Sum256(b)
	} else {
		if r.res.Trace.Len() != r.packets {
			return outputs{}, fmt.Errorf("decoded %d packets of %d captured", r.packets, r.res.Trace.Len())
		}
		sum = sha256.Sum256(encoded)
	}
	eng := r.res.Engine
	return outputs{
		Digest: hex.EncodeToString(sum[:]),
		Counts: map[string]float64{
			"packets":                   float64(r.packets),
			"ethernet.frames":           float64(r.res.SegStats.Frames),
			"ethernet.collisions":       float64(r.res.SegStats.Collisions),
			"ethernet.wire_bytes":       float64(r.res.SegStats.Bytes),
			"sim.engine_windows":        float64(eng.Windows),
			"sim.engine_mean_active":    eng.MeanActive(),
			"sim.engine_cross_msgs":     float64(eng.CrossMessages),
			"sim.engine_null_publishes": float64(eng.NullPublishes),
			"model.fit_nrmse":           nrmse,
		},
	}, nil
}

// harnessFrame is the function the CPU profile reader treats as the
// benchmark's own work.
const harnessFrame = "main.outputsOf"

// checker marks a repetition failed when its outputs differ from the
// pinned ones (seeds in expected.json) or from the first repetition's
// (any seed: the simulator is deterministic, so reps must repeat).
type checker struct {
	pinned *outputs
	first  *outputs
}

func (c *checker) ok(o outputs) bool {
	if c.first == nil {
		c.first = &o
	}
	if !o.equal(*c.first) {
		return false
	}
	return c.pinned == nil || o.equal(*c.pinned)
}

// releaseAndCollect drops a repetition's products and collects them, so
// garbage from one repetition is never swept inside the next one's clock.
func releaseAndCollect(r *repResult) {
	r.res, r.decoded, r.rep = nil, nil, nil
	runtime.GC()
}

func heapAllocMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// retainedRep is the repetition after which retained_mb is sampled.
// Every run reaches it, so the figure does not depend on how many
// repetitions the host fits into -seconds.
const retainedRep = 2

// simSetups is how many times set-up runs; setup_s is their median.
const simSetups = 9

// simSetup is everything a sim workload does before its first timed
// repetition: build the input and push one smoke-scale repetition
// through the same pipeline, so code and allocator are warm.
func simSetup(workload, scale string, seed int64) (core.RunConfig, bool, error) {
	warm, stream, err := simConfig(workload, scaleSmoke, seed)
	if err != nil {
		return core.RunConfig{}, false, err
	}
	if _, err := pipeline(warm, stream, core.RunOpts{}, nil, 0); err != nil {
		return core.RunConfig{}, false, err
	}
	return simConfig(workload, scale, seed)
}

// passResult is what one pass over one workload hands back to main.
type passResult struct {
	attempted, failed int
	metrics           metricSet
	// info rows follow the metric rows: the issue's end-to-end names
	// that only some workloads define (the traced pass reports them
	// under harness.*), and every repetition's time in order.
	info []string
}

func (pr *passResult) infof(name string, value float64, unit, format string, args ...any) {
	pr.info = append(pr.info, fmt.Sprintf("%-36s %14.6g %-10s (%s)", name, value, unit, fmt.Sprintf(format, args...)))
}

// runSim is the untraced pass: end-to-end metrics only.
func runSim(o options) (*passResult, error) {
	var (
		cfg    core.RunConfig
		stream bool
		err    error
		setups []float64
	)
	for i := 0; i < simSetups; i++ {
		t0 := time.Now()
		cfg, stream, err = simSetup(o.workload, o.scale, o.seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	runtime.GC()

	chk := &checker{pinned: pinnedOutputs(o.workload, o.scale, o.seed)}
	pr := &passResult{metrics: metricSet{}}
	var runs, sims []float64
	var packets int
	var retained, aggKBps float64
	start := time.Now()
	for rep := 1; rep <= retainedRep || time.Since(start) < o.seconds; rep++ {
		r, err := pipeline(cfg, stream, core.RunOpts{}, nil, rep)
		if err != nil {
			return nil, err
		}
		pr.attempted++
		if !chk.ok(r.out) {
			pr.failed++
			fmt.Printf("%s: rep %d outputs differ: got %+v\n", o.workload, rep, r.out)
		}
		runs = append(runs, r.run.Seconds())
		sims = append(sims, r.sim.Seconds())
		packets, aggKBps = r.packets, r.aggKBps
		releaseAndCollect(r)
		if rep == retainedRep {
			runtime.GC()
			retained = heapAllocMB()
		}
	}
	elapsed := time.Since(start).Seconds()

	m := pr.metrics
	m.setSamples("setup_s", setups)
	m.setSamples("run_s", runs)
	m.set("jobs_per_s", float64(len(runs))/elapsed)
	m.set("retained_mb", retained)
	pr.infof("sim_pkts_per_s", float64(packets)/median(sims), "pkts/s",
		"%d packets / median simulate stage %.4f host-s", packets, median(sims))
	if stream {
		pr.infof("paper_bw_relerr", math.Abs(aggKBps-paperAirshedKBps)/paperAirshedKBps, "ratio",
			"simulated %.4g KB/s against the paper's %.4g", aggKBps, paperAirshedKBps)
	}
	pr.infof("reps", float64(len(runs)), "count", "run_s of each, in order: %.3f", runs)
	return pr, nil
}

// tracedSimReps is how many repetitions of the traced pass run with
// spans, allocation counters and the CPU profile on; as many run
// untraced, as the overhead baseline.
const tracedSimReps = 2

// runSimTraced is the traced pass: per-layer metrics only.
func runSimTraced(o options) (*passResult, *recorder, error) {
	cfg, stream, err := simSetup(o.workload, o.scale, o.seed)
	if err != nil {
		return nil, nil, err
	}
	chk := &checker{pinned: pinnedOutputs(o.workload, o.scale, o.seed)}
	pr := &passResult{metrics: metricSet{}}
	m := pr.metrics
	note := func(r *repResult, what string) {
		pr.attempted++
		if !chk.ok(r.out) {
			pr.failed++
			fmt.Printf("%s: %s outputs differ: got %+v\n", o.workload, what, r.out)
		}
	}

	// Untraced repetitions bracket the traced ones (U T T U), so drift
	// across the pass — every repetition leaks into the heap — falls on
	// both sides of the overhead ratio alike. The first one's products
	// also feed the probes that replay this workload's own trace.
	var untraced, sims []float64
	untracedRep := func(rep int) error {
		r, err := pipeline(cfg, stream, core.RunOpts{}, nil, rep)
		if err != nil {
			return err
		}
		note(r, "untraced rep")
		untraced = append(untraced, r.run.Seconds())
		sims = append(sims, r.sim.Seconds())
		if rep == 1 && !stream {
			if err := traceProbes(o, m, cfg, r); err != nil {
				return err
			}
		}
		releaseAndCollect(r)
		return nil
	}
	if err := untracedRep(1); err != nil {
		return nil, nil, err
	}

	rec := newRecorder()
	var profile bytes.Buffer
	if err := pprof.StartCPUProfile(&profile); err != nil {
		return nil, nil, err
	}
	var (
		runs, encs, decs, chars, fits      []float64
		allocs, allocMB, productMB, leaked []float64
		last                               repResult
		before, after                      runtime.MemStats
	)
	for rep := 1; rep <= tracedSimReps; rep++ {
		goroutines := runtime.NumGoroutine()
		runtime.ReadMemStats(&before)
		r, err := pipeline(cfg, stream, core.RunOpts{}, rec, rep)
		if err != nil {
			pprof.StopCPUProfile()
			return nil, nil, err
		}
		runtime.ReadMemStats(&after)
		leaked = append(leaked, float64(runtime.NumGoroutine()-goroutines))
		note(r, "traced rep")
		runs = append(runs, r.run.Seconds())
		sims = append(sims, r.sim.Seconds())
		encs = append(encs, r.enc.Seconds())
		decs = append(decs, r.dec.Seconds())
		chars = append(chars, r.char.Seconds())
		fits = append(fits, r.fit.Seconds())
		// The counters bracket the whole repetition; the simulate stage
		// makes all but a rounding error of the allocations.
		allocs = append(allocs, float64(after.Mallocs-before.Mallocs)/float64(r.packets))
		allocMB = append(allocMB, float64(after.TotalAlloc-before.TotalAlloc)/1e6)

		runtime.GC()
		holding := heapAllocMB()
		releaseAndCollect(r)
		productMB = append(productMB, holding-heapAllocMB())
		last = *r
	}
	pprof.StopCPUProfile()
	if err := untracedRep(2); err != nil {
		return nil, nil, err
	}

	if cfg.Topology != nil {
		serial, err := pipeline(cfg, stream, core.RunOpts{PDES: core.PDESSerial}, nil, 0)
		if err != nil {
			return nil, nil, err
		}
		note(serial, "serial-engine rep")
		m.setNote("sim.engine_parallel_speedup", serial.sim.Seconds()/median(sims), parallelBase())
		releaseAndCollect(serial)
	}

	m.setSamples("core.run_s", sims)
	m.setSamples("core.allocs_per_pkt", allocs)
	m.setSamples("core.alloc_mb_per_run", allocMB)
	m.setSamples("core.product_mb", productMB)
	m.setSamples("core.leaked_goroutines_per_run", leaked)
	m.setSamples("model.fit_s", fits)
	if stream {
		m.set("harness.paper_bw_relerr", math.Abs(last.aggKBps-paperAirshedKBps)/paperAirshedKBps)
	} else {
		m.setSamples("trace.encode_s", encs)
		m.setSamples("trace.decode_s", decs)
		m.setSamples("analysis.characterize_s", chars)
		m.set("trace.bytes_per_pkt", float64(last.encodedBytes)/float64(last.packets))
	}
	for name, v := range last.out.Counts {
		if name != "packets" {
			m.set(name, v)
		}
	}
	m.set("harness.sim_pkts_per_s", float64(last.packets)/median(sims))
	m.set("harness.trace_overhead", median(runs)/median(untraced))
	m.set("harness.span_coverage", rec.coverage())
	if err := setCPUShares(m, profile.Bytes()); err != nil {
		return nil, nil, err
	}
	return pr, rec, nil
}

// paperAirshedKBps is the paper's §6.2 AIRSHED average bandwidth.
// harness.paper_bw_relerr states the simulator's error against it beside
// its speed; it is exact per seed.
const paperAirshedKBps = 32.7

// parallelBase is the note every parallel ratio carries: a speedup
// measured on fewer than 4 cores settles nothing either way.
func parallelBase() string {
	n := runtime.NumCPU()
	if n < 4 {
		return fmt.Sprintf("base nproc=%d, unresolved below 4 cores", n)
	}
	return fmt.Sprintf("base nproc=%d", n)
}

// traceProbes are the per-layer measurements that replay this
// workload's own captured trace: the characterization pool ratio, the
// streaming fold, and the cache codec over a real result.
func traceProbes(o options, m metricSet, cfg core.RunConfig, r *repResult) error {
	if cfg.Topology != nil {
		pool := dsp.NewPool(runtime.NumCPU())
		t0 := time.Now()
		pooled := analysis.CharacterizeTracePool(r.decoded, cfg.Program, r.res.RepConn, pool)
		pooledS := time.Since(t0).Seconds()
		a, err := farm.MarshalReport(r.rep)
		if err != nil {
			return err
		}
		b, err := farm.MarshalReport(pooled)
		if err != nil {
			return err
		}
		if !bytes.Equal(a, b) {
			return fmt.Errorf("pooled characterization differs from serial")
		}
		m.setNote("analysis.pool_speedup", r.char.Seconds()/pooledS, parallelBase())
	}

	sc := analysis.NewStreamCharacterizer(cfg.Program, r.res.RepConn)
	t0 := time.Now()
	for _, p := range r.decoded.Packets {
		sc.Observe(p)
	}
	_ = sc.Report()
	m.set("analysis.stream_fold_ns_per_pkt", float64(time.Since(t0).Nanoseconds())/float64(r.packets))

	return cacheCodecProbe(o, m, cfg, r)
}

// setCPUShares buckets the CPU profile by layer. The buckets are the
// declared <pkg>.cpu_share metrics, so the shares always sum to 1.
func setCPUShares(m metricSet, profile []byte) error {
	layers := map[string]bool{}
	for _, pkg := range cpuLayers {
		layers[pkg] = true
	}
	shares, err := cpuShares(profile, layers)
	if err != nil {
		return err
	}
	for _, pkg := range cpuLayers {
		m.set(pkg+".cpu_share", shares[pkg])
	}
	m.set("runtime.cpu_share", shares["runtime"])
	m.set("harness.cpu_share", shares["harness"])
	return nil
}

// cpuLayers are the internal packages with their own cpu_share metric.
var cpuLayers = []string{
	"sim", "ethernet", "netstack", "pvm", "fx", "kernels", "airshed", "linalg",
	"trace", "analysis", "dsp", "model", "stats", "core",
	"farm", "server", "client", "journal", "catalog", "qos",
}
