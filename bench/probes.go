package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"fxnet/internal/catalog"
	"fxnet/internal/core"
	"fxnet/internal/dsp"
	"fxnet/internal/ethernet"
	"fxnet/internal/farm"
	"fxnet/internal/fx"
	"fxnet/internal/journal"
	"fxnet/internal/kernels"
	"fxnet/internal/linalg"
	"fxnet/internal/netstack"
	"fxnet/internal/pvm"
	"fxnet/internal/qos"
	"fxnet/internal/sim"
	"fxnet/internal/stats"
)

// A probe is a small driver that calls one layer's public API directly,
// in the shape of that package's own Benchmark* function (which cannot
// be imported). Probes do not depend on the workload; every traced pass
// runs them all, each for well under a second.

// sizer shrinks every probe's iteration count at smoke scale.
type sizer func(full int) int

func runProbes(o options, m metricSet) error {
	n := sizer(func(full int) int {
		if o.scale == scaleSmoke {
			return max(full/50, 2)
		}
		return full
	})
	probeSim(m, n)
	probeEthernet(m, n)
	probeNetstack(m, n)
	probePVM(m, n)
	probeFx(m, n)
	probeCompute(m, n)
	probeDSP(m, n)
	if err := probeJournal(o, m, n); err != nil {
		return fmt.Errorf("journal probe: %w", err)
	}
	if err := probeFarm(o, m); err != nil {
		return fmt.Errorf("farm probe: %w", err)
	}
	return nil
}

func seconds(since time.Time) float64 { return time.Since(since).Seconds() }

func probeSim(m metricSet, n sizer) {
	// Self-rescheduling events: the kernel's dispatch loop and heap.
	events := n(1_000_000)
	k := sim.New(1)
	done := 0
	var again func()
	again = func() {
		done++
		if done < events {
			k.After(sim.Microsecond, "e", again)
		}
	}
	k.After(0, "e", again)
	t0 := time.Now()
	k.Run()
	m.set("sim.events_per_s", float64(events)/seconds(t0))

	// Two procs ping-pong through a pair of channels: every hand-off
	// parks one goroutine and dispatches the other.
	rounds := n(200_000)
	k = sim.New(1)
	var ping, pong sim.Chan[int]
	k.Go("ping", func(p *sim.Proc) {
		for i := 0; i < rounds; i++ {
			ping.Put(i)
			pong.Get(p)
		}
	})
	k.Go("pong", func(p *sim.Proc) {
		for i := 0; i < rounds; i++ {
			ping.Get(p)
			pong.Put(i)
		}
	})
	t0 = time.Now()
	k.Run()
	m.set("sim.proc_switch_ns", seconds(t0)*1e9/float64(2*rounds))

	// A message circling four partitions: per-window cost of the
	// conservative engine (horizons, staged injection, barrier).
	const parts = 4
	hops := n(200_000)
	ks := make([]*sim.Kernel, parts)
	lat := make([][]sim.Duration, parts)
	for i := range ks {
		ks[i] = sim.New(int64(i + 1))
		lat[i] = make([]sim.Duration, parts)
		for j := range lat[i] {
			if i != j {
				lat[i][j] = 2 * sim.Millisecond
			}
		}
	}
	eng := sim.NewEngineMatrix(ks, lat)
	hop := 0
	var fns [parts]func()
	for src := range fns {
		src := src
		fns[src] = func() {
			hop++
			if hop > hops {
				return
			}
			dst := (src + 1) % parts
			eng.Send(src, dst, ks[src].Now().Add(2*sim.Millisecond), "hop", fns[dst])
		}
	}
	ks[0].At(0, "seed", fns[0])
	t0 = time.Now()
	eng.Run(false)
	m.set("sim.engine_window_ns", seconds(t0)*1e9/float64(eng.Stats().Windows))
}

func probeEthernet(m metricSet, n sizer) {
	// Four stations saturating one collision domain, at the smallest
	// and the largest frame.
	saturate := func(netLen, frames int) float64 {
		k := sim.New(1)
		seg := ethernet.NewSegment(k, 0)
		sts := make([]*ethernet.Station, 4)
		for i := range sts {
			sts[i] = seg.Attach(fmt.Sprintf("s%d", i))
			sts[i].OnReceive(func(*ethernet.Frame) {})
		}
		for i := 0; i < frames; i++ {
			st := sts[i%4]
			st.Send(&ethernet.Frame{Dst: (st.ID() + 1) % 4, NetLen: netLen})
		}
		t0 := time.Now()
		k.Run()
		return float64(frames) / seconds(t0)
	}
	const header = ethernet.HeaderBytes + ethernet.TrailerBytes
	m.set("ethernet.sat_frames_per_s_64", saturate(64-header, n(100_000)))
	m.set("ethernet.sat_frames_per_s_1518", saturate(1518-header, n(100_000)))

	// A bridge relaying trunk arrivals onto its segment toward an
	// address it has learned.
	frames := n(100_000)
	k := sim.New(1)
	seg := ethernet.NewSegment(k, 0)
	seg.Attach("h0").OnReceive(func(*ethernet.Frame) {})
	br := ethernet.NewBridge(seg, 0, 4, 64, func(int, *ethernet.Frame) {})
	f := &ethernet.Frame{Src: 40, Dst: 0, NetLen: 1500}
	t0 := time.Now()
	for i := 0; i < frames; i++ {
		br.DeliverFromTrunk(2, f)
	}
	k.Run()
	m.set("ethernet.bridge_forward_ns", seconds(t0)*1e9/float64(frames))
}

// twoHosts builds the smallest network the transport probes need.
func twoHosts() (*sim.Kernel, *ethernet.Segment, []*netstack.Host) {
	k := sim.New(1)
	seg := ethernet.NewSegment(k, 0)
	hosts := []*netstack.Host{
		netstack.NewHost(k, seg.Attach("a"), "a", netstack.DefaultConfig()),
		netstack.NewHost(k, seg.Attach("b"), "b", netstack.DefaultConfig()),
	}
	return k, seg, hosts
}

func probeNetstack(m metricSet, n sizer) {
	// Small messages: 16-byte writes (PVM sets TCP_NODELAY, so each is
	// its own segment) drained by 16-byte reads — the per-segment and
	// per-ACK cost with no payload to amortize it.
	msgs := n(100_000)
	k, _, hosts := twoHosts()
	l := hosts[1].Listen(80)
	k.Go("server", func(p *sim.Proc) {
		c := l.Accept(p)
		for i := 0; i < msgs; i++ {
			c.Read(p, 16)
		}
	})
	k.Go("client", func(p *sim.Proc) {
		c := hosts[0].Connect(p, 1, 80)
		buf := make([]byte, 16)
		for i := 0; i < msgs; i++ {
			c.Write(p, buf)
		}
	})
	t0 := time.Now()
	k.Run()
	m.set("netstack.tcp_small_msgs_per_s", float64(msgs)/seconds(t0))

	// Bulk: one-way transfer; host seconds per simulated MSS segment.
	size := n(8 << 20)
	k, seg, hosts := twoHosts()
	l = hosts[1].Listen(80)
	k.Go("server", func(p *sim.Proc) { l.Accept(p).Read(p, size) })
	k.Go("client", func(p *sim.Proc) { hosts[0].Connect(p, 1, 80).Write(p, make([]byte, size)) })
	t0 = time.Now()
	k.Run()
	m.set("netstack.tcp_bulk_segs_per_s", float64(seg.Stats().Frames)/seconds(t0))
}

func probePVM(m metricSet, n sizer) {
	exchange := func(count, size int) float64 {
		k, _, hosts := twoHosts()
		machine := pvm.NewMachine(k, hosts, pvm.Config{})
		machine.Spawn("recv", 1, func(t *pvm.Task) {
			for i := 0; i < count; i++ {
				t.Recv(1, 1)
			}
		})
		machine.Spawn("send", 0, func(t *pvm.Task) {
			body := make([]byte, size)
			for i := 0; i < count; i++ {
				t.Send(0, 1, body)
			}
		})
		t0 := time.Now()
		k.Run()
		return seconds(t0)
	}
	small := n(100_000)
	m.set("pvm.small_msgs_per_s", float64(small)/exchange(small, 16))
	bulk := n(64)
	m.set("pvm.bulk_mb_per_s", float64(bulk)/exchange(bulk, 1<<20))
}

func probeFx(m metricSet, n sizer) {
	const p = 4
	rounds := n(200)
	k := sim.New(1)
	seg := ethernet.NewSegment(k, 0)
	hosts := make([]*netstack.Host, p)
	for i := range hosts {
		name := fmt.Sprintf("h%d", i)
		hosts[i] = netstack.NewHost(k, seg.Attach(name), name, netstack.DefaultConfig())
	}
	machine := pvm.NewMachine(k, hosts, pvm.Config{})
	// The zero CostModel charges nothing for compute and never
	// deschedules: what remains is the collective itself.
	fx.LaunchOpts(machine, fx.Opts{P: p, Name: "probe"}, func(w *fx.Worker) {
		parts := make([][]byte, p)
		for i := range parts {
			parts[i] = make([]byte, 4096)
		}
		for i := 0; i < rounds; i++ {
			w.AllToAll(i, parts)
		}
	})
	t0 := time.Now()
	k.Run()
	m.set("fx.alltoall_per_s", float64(rounds)/seconds(t0))
}

func probeCompute(m metricSet, n sizer) {
	t0 := time.Now()
	kernels.FFT2DSequential(kernels.Params{N: max(n(256), 16), Iters: 1})
	m.set("kernels.fft2d_seq_ms", seconds(t0)*1e3)

	r := rand.New(rand.NewSource(2))
	const dim, band = 1024, 8
	a := linalg.NewBanded(dim, band)
	for i := 0; i < dim; i++ {
		var sum float64
		for j := max(0, i-band); j <= min(dim-1, i+band); j++ {
			if i != j {
				v := r.NormFloat64()
				a.Set(i, j, v)
				sum += math.Abs(v)
			}
		}
		a.Set(i, i, sum+1+r.Float64())
	}
	factors := n(200)
	var lu *linalg.BandedLU
	t0 = time.Now()
	for i := 0; i < factors; i++ {
		// A diagonally dominant matrix always factors.
		lu, _ = linalg.FactorBanded(a)
	}
	m.set("linalg.banded_factor_us", seconds(t0)*1e6/float64(factors))

	rhs := make([]float64, dim)
	for i := range rhs {
		rhs[i] = r.NormFloat64()
	}
	solves := n(5000)
	t0 = time.Now()
	for i := 0; i < solves; i++ {
		lu.Solve(rhs)
	}
	m.set("linalg.banded_solve_ns", seconds(t0)*1e9/float64(solves))
}

func probeDSP(m metricSet, n sizer) {
	r := rand.New(rand.NewSource(2))
	x := make([]float64, n(1<<18))
	for i := range x {
		x[i] = r.NormFloat64()
	}
	opt := dsp.PeriodogramOptions{RemoveMean: true, PadPow2: true}
	var ws dsp.Workspace
	ws.Periodogram(x, 0.01, opt) // builds the plan and the scratch
	const spectra = 5
	t0 := time.Now()
	for i := 0; i < spectra; i++ {
		ws.Periodogram(x, 0.01, opt)
	}
	m.set("dsp.periodogram_ms_262144", seconds(t0)*1e3/spectra)

	z := make([]complex128, 16384)
	for i := range z {
		z[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	dsp.FFT(z)
	ffts := n(500)
	t0 = time.Now()
	for i := 0; i < ffts; i++ {
		dsp.FFT(z)
	}
	m.set("dsp.fft_us_16384", seconds(t0)*1e6/float64(ffts))
}

// probeJournal appends fsync'd records to a journal in the benchmark's
// temp dir — the sandbox's disk, not a real one; the host facts name
// its filesystem.
func probeJournal(o options, m metricSet, n sizer) error {
	path := filepath.Join(o.tmp, "probe.journal")
	jn, _, err := journal.Open(path, journal.Options{}, func(journal.Record) error { return nil })
	if err != nil {
		return err
	}
	appends := n(2000)
	body := make([]byte, 256)
	lat := make([]float64, 0, appends)
	for i := 0; i < appends; i++ {
		t0 := time.Now()
		if err := jn.Append(journal.OpSubmitted, body); err != nil {
			jn.Close()
			return err
		}
		lat = append(lat, seconds(t0)*1e6)
	}
	if err := jn.Close(); err != nil {
		return err
	}
	m.set("journal.append_p50_us", median(lat))
	m.set("journal.append_p99_us", stats.Quantile(lat, 0.99))

	t0 := time.Now()
	jn, st, err := journal.Open(path, journal.Options{}, func(journal.Record) error { return nil })
	if err != nil {
		return err
	}
	replayS := seconds(t0)
	if st.Records != appends {
		jn.Close()
		return fmt.Errorf("replayed %d of %d records", st.Records, appends)
	}
	m.set("journal.replay_recs_per_s", float64(st.Records)/replayS)
	return jn.Close()
}

// probeFarm walks one small run through every cache tier, then the
// catalog and the admission broker over the same run.
func probeFarm(o options, m metricSet) error {
	dir, err := os.MkdirTemp(o.tmp, "farm")
	if err != nil {
		return err
	}
	cfg := core.RunConfig{Program: "sor", P: 4, Params: kernels.Params{N: 32, Iters: 4}, Seed: 1}

	const keys = 1000
	t0 := time.Now()
	for i := 0; i < keys; i++ {
		farm.Key(cfg)
	}
	m.set("farm.key_us", seconds(t0)*1e6/keys)

	newFarm := func() (*farm.Farm, error) {
		cache, err := farm.OpenCache(filepath.Join(dir, "cache"))
		if err != nil {
			return nil, err
		}
		return farm.New(farm.Options{Workers: 1, Cache: cache, Memoize: true}), nil
	}
	f, err := newFarm()
	if err != nil {
		return err
	}
	timeRun := func(f *farm.Farm) (float64, error) {
		t0 := time.Now()
		_, _, err := f.Run(cfg)
		return seconds(t0), err
	}
	cold, err := timeRun(f)
	if err != nil {
		return err
	}
	m.set("farm.cold_run_ms", cold*1e3)
	memo, err := timeRun(f)
	if err != nil {
		return err
	}
	m.set("farm.memo_hit_us", memo*1e6)
	fresh, err := newFarm()
	if err != nil {
		return err
	}
	disk, err := timeRun(fresh)
	if err != nil {
		return err
	}
	m.set("farm.disk_hit_ms", disk*1e3)
	if st := fresh.Stats(); st.CacheHits != 1 || st.Executed != 0 {
		return fmt.Errorf("fresh farm over a warm cache: %+v", st)
	}

	cat, err := catalog.Open(filepath.Join(dir, "models"))
	if err != nil {
		return err
	}
	t0 = time.Now()
	entry, prov, err := catalog.NewFitter(fresh, cat).Fit(context.Background(), cfg, catalog.Options{})
	if err != nil {
		return err
	}
	m.set("catalog.fit_ms", seconds(t0)*1e3)
	if prov.CatalogHit {
		return fmt.Errorf("first fit hit the catalog")
	}
	const gets = 1000
	t0 = time.Now()
	for i := 0; i < gets; i++ {
		if _, ok := cat.Get(entry.Key); !ok {
			return fmt.Errorf("catalog lost %s", entry.Key)
		}
	}
	m.set("catalog.get_us", seconds(t0)*1e6/gets)

	spec, _ := kernels.Lookup("sor")
	prog := spec.QoS(spec.Params)
	network := qos.NewNetwork(1.1e6)
	const negotiations = 1000
	t0 = time.Now()
	for i := 0; i < negotiations; i++ {
		if _, err := network.Negotiate(prog, 32); err != nil {
			return err
		}
	}
	m.set("qos.negotiate_us", seconds(t0)*1e6/negotiations)
	return nil
}

// cacheCodecProbe stores and loads this workload's own result through
// the farm's disk cache: the codec and the crash-safe write path at the
// size of a real trace.
func cacheCodecProbe(o options, m metricSet, cfg core.RunConfig, r *repResult) error {
	dir, err := os.MkdirTemp(o.tmp, "codec")
	if err != nil {
		return err
	}
	cache, err := farm.OpenCache(dir)
	if err != nil {
		return err
	}
	key := farm.Key(cfg)
	mb := float64(r.encodedBytes) / 1e6
	t0 := time.Now()
	if err := cache.Store(key, r.res, r.rep); err != nil {
		return err
	}
	m.set("farm.store_mb_per_s", mb/seconds(t0))
	t0 = time.Now()
	res, _, ok := cache.Load(key, cfg)
	loadS := seconds(t0)
	if !ok || res.Trace.Len() != r.packets {
		return fmt.Errorf("cache round trip lost the result")
	}
	m.set("farm.load_mb_per_s", mb/loadS)
	return nil
}
