package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// pingPong wires nPart partitions into a ring: each partition's callback
// records (partition, time) in a partition-local log and forwards to the
// next partition after the trunk delay. Partition logs are merged in
// (time, partition) order up to each barrier's watermark — the same
// discipline the topology runner uses for per-segment capture buffers —
// so the returned log is well-defined in both serial and parallel mode.
func pingPong(parallel bool, nPart, rounds int, delay Duration) ([]string, EngineStats) {
	parts := make([]*Kernel, nPart)
	for i := range parts {
		parts[i] = New(int64(i + 1))
	}
	eng := NewEngineMatrix(parts, uniform(len(parts), 2*delay))
	type entry struct {
		at   Time
		text string
	}
	local := make([][]entry, nPart)
	var merged []string
	eng.OnBarrier(func(w Time) {
		for {
			best := -1
			for i := range local {
				if len(local[i]) == 0 || local[i][0].at >= w {
					continue
				}
				if best < 0 || local[i][0].at < local[best][0].at {
					best = i
				}
			}
			if best < 0 {
				return
			}
			merged = append(merged, local[best][0].text)
			local[best] = local[best][1:]
		}
	})
	var hop func(src int, n int) func()
	hop = func(src, n int) func() {
		return func() {
			k := parts[src]
			local[src] = append(local[src], entry{k.Now(), fmt.Sprintf("p%d@%d r%d", src, k.Now(), n)})
			if n >= rounds {
				return
			}
			dst := (src + 1) % nPart
			if dst == src {
				// Same-partition traffic stays local, as in the
				// topology runner.
				k.At(k.Now().Add(2*delay), "hop", hop(dst, n+1))
			} else {
				eng.Send(src, dst, k.Now().Add(2*delay), "hop", hop(dst, n+1))
			}
		}
	}
	for i := range parts {
		i := i
		parts[i].At(0, "seed", hop(i, 0))
	}
	eng.Run(parallel)
	return merged, eng.Stats()
}

// TestEngineSerialParallelIdentical: the number of runners — none under
// GOMAXPROCS=1, up to one per partition beyond it — changes only who
// executes a round. Every ring gives the serial log and the serial
// EngineStats, whatever GOMAXPROCS is.
func TestEngineSerialParallelIdentical(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for nPart := 1; nPart <= 5; nPart++ {
		want, wantStats := pingPong(false, nPart, 50, Millisecond)
		if len(want) != nPart*(50+1) {
			t.Fatalf("nPart=%d: expected %d hops, got %d", nPart, nPart*51, len(want))
		}
		for _, procs := range []int{1, 2, 3, 8} {
			runtime.GOMAXPROCS(procs)
			got, stats := pingPong(true, nPart, 50, Millisecond)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("nPart=%d GOMAXPROCS=%d: serial and parallel logs differ:\nserial: %v\nparallel: %v", nPart, procs, want, got)
			}
			if stats != wantStats {
				t.Fatalf("nPart=%d GOMAXPROCS=%d: parallel stats %+v, serial %+v", nPart, procs, stats, wantStats)
			}
		}
	}
}

// TestEnginePanicReachesCaller: a panic in a partition's event — a
// callback or a process body — surfaces in Run's caller in both modes,
// as the lowest-indexed panicking partition's value. In parallel mode
// the round finishes first and every helper is gone when Run unwinds.
func TestEnginePanicReachesCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, parallel := range []bool{false, true} {
		before := goroutinesSettled()
		parts := []*Kernel{New(1), New(2), New(3), New(4)}
		eng := NewEngineMatrix(parts, uniform(len(parts), Millisecond))
		ran := make([]bool, len(parts))
		parts[0].At(0, "fine", func() { ran[0] = true })
		parts[1].Go("body", func(p *Proc) {
			ran[1] = true
			panic("partition 1")
		})
		parts[2].At(0, "callback", func() {
			ran[2] = true
			panic("partition 2")
		})
		parts[3].At(0, "fine", func() { ran[3] = true })
		got := func() (v any) {
			defer func() { v = recover() }()
			eng.Run(parallel)
			return nil
		}()
		if got != "partition 1" {
			t.Errorf("parallel=%v: Run raised %v, want the panic of partition 1", parallel, got)
		}
		if parallel && !reflect.DeepEqual(ran, []bool{true, true, true, true}) {
			t.Errorf("parallel round did not finish before the panic surfaced: ran %v", ran)
		}
		for _, k := range parts {
			k.Close()
		}
		if after := goroutinesSettled(); after != before {
			t.Errorf("parallel=%v: %d goroutines after Run unwound, %d before", parallel, after, before)
		}
	}
}

// TestIdleRunnerParks: a runner with nothing to do polls for spinFor,
// then parks until roused, so no helper spins between rounds for longer
// than the bound. A late rouse — one sent before its work is ready, as a
// runner finishing the previous round's last partition can — does not
// release it: it parks again.
func TestIdleRunnerParks(t *testing.T) {
	s := sleeper{wake: make(chan struct{}, 1)}
	var ready atomic.Bool
	start := time.Now()
	done := make(chan struct{})
	go func() {
		s.await(ready.Load)
		close(done)
	}()
	parks := func() bool {
		for !s.parked.Load() {
			select {
			case <-done:
				return false
			default:
				runtime.Gosched()
			}
		}
		return true
	}
	if !parks() {
		t.Fatal("await returned before its work was ready")
	}
	if waited := time.Since(start); waited < spinFor {
		t.Errorf("parked after %v, before its %v bound", waited, spinFor)
	}
	s.rouse()
	if !parks() {
		t.Fatal("await returned on a late rouse")
	}
	ready.Store(true)
	s.rouse()
	<-done
	if s.parked.Load() {
		t.Error("roused runner still marked parked")
	}
}

func TestEngineBarrierMergeOrder(t *testing.T) {
	// Three partitions all send to partition 0 at the same timestamp;
	// injection order must be (at, src, seq) regardless of the round
	// schedule that delivered them.
	run := func(parallel bool) []string {
		parts := []*Kernel{New(1), New(2), New(3), New(4)}
		eng := NewEngineMatrix(parts, uniform(len(parts), 4*Millisecond))
		var got []string
		for src := 1; src <= 3; src++ {
			src := src
			parts[src].At(0, "burst", func() {
				at := parts[src].Now().Add(4 * Millisecond)
				for j := 0; j < 2; j++ {
					src, j := src, j
					eng.Send(src, 0, at, "msg", func() {
						got = append(got, fmt.Sprintf("src%d.%d", src, j))
					})
				}
			})
		}
		eng.Run(parallel)
		return got
	}
	want := []string{"src1.0", "src1.1", "src2.0", "src2.1", "src3.0", "src3.1"}
	for _, parallel := range []bool{false, true} {
		if got := run(parallel); !reflect.DeepEqual(got, want) {
			t.Fatalf("parallel=%v: merge order %v, want %v", parallel, got, want)
		}
	}
}

func TestEngineLookaheadViolationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on lookahead violation")
		}
	}()
	parts := []*Kernel{New(1), New(2)}
	eng := NewEngineMatrix(parts, uniform(len(parts), 10*Millisecond))
	parts[0].At(0, "bad", func() {
		// Timestamp inside the current window: history rewrite.
		eng.Send(0, 1, parts[0].Now().Add(Millisecond), "early", func() {})
	})
	eng.Run(false)
}

func TestEnginePairHorizonViolationPanics(t *testing.T) {
	// A message that clears the smallest pairwise bound in the matrix
	// (1 ms, between partitions 0 and 1) but undercuts the bound of the
	// pair it actually travels on (0 → 2, 10 ms) must still panic: the
	// contract is per pair, not global.
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on pair-horizon violation")
		}
	}()
	lat := [][]Duration{
		{0, Millisecond, 10 * Millisecond},
		{Millisecond, 0, 10 * Millisecond},
		{10 * Millisecond, 10 * Millisecond, 0},
	}
	parts := []*Kernel{New(1), New(2), New(3)}
	eng := NewEngineMatrix(parts, lat)
	parts[1].At(0, "keep-busy", func() {}) // partition 1 stays observable
	parts[0].At(0, "bad", func() {
		// 5 ms clears the global minimum (1 ms) but not L[0][2] = 10 ms.
		eng.Send(0, 2, parts[0].Now().Add(5*Millisecond), "early", func() {})
	})
	eng.Run(false)
}

func TestEngineMatrixClosure(t *testing.T) {
	// The matrix is closed over paths: a cheap relay through partition 1
	// tightens the direct 0 → 2 entry from 100 ms to 2 ms, and the
	// closed value is what both the horizon math and the violation check
	// must price.
	lat := [][]Duration{
		{0, Millisecond, 100 * Millisecond},
		{Millisecond, 0, Millisecond},
		{100 * Millisecond, Millisecond, 0},
	}
	eng := NewEngineMatrix([]*Kernel{New(1), New(2), New(3)}, lat)
	if got := eng.Lookahead(0, 2); got != 2*Millisecond {
		t.Fatalf("closed L[0][2] = %v, want %v", got, 2*Millisecond)
	}
	if got := eng.Lookahead(0, 1); got != Millisecond {
		t.Fatalf("closed L[0][1] = %v, want %v", got, Millisecond)
	}
}

func TestEngineAsymmetricPairsDecouple(t *testing.T) {
	// Partitions 0 and 1 exchange traffic every 2 ms over a tight 1 ms
	// pair bound; partition 2 sits behind 200 ms bounds with 100 purely
	// local events. Under the per-pair horizons partition 2 must clear
	// all its work in one round instead of being dragged through the
	// fast pair's lockstep — visible as ActiveSum barely above Windows.
	run := func(parallel bool) ([]string, EngineStats) {
		lat := [][]Duration{
			{0, Millisecond, 200 * Millisecond},
			{Millisecond, 0, 200 * Millisecond},
			{200 * Millisecond, 200 * Millisecond, 0},
		}
		parts := []*Kernel{New(1), New(2), New(3)}
		eng := NewEngineMatrix(parts, lat)
		type entry struct {
			at   Time
			text string
		}
		local := make([][]entry, len(parts))
		var merged []string
		eng.OnBarrier(func(w Time) {
			for {
				best := -1
				for i := range local {
					if len(local[i]) == 0 || local[i][0].at >= w {
						continue
					}
					if best < 0 || local[i][0].at < local[best][0].at {
						best = i
					}
				}
				if best < 0 {
					return
				}
				merged = append(merged, local[best][0].text)
				local[best] = local[best][1:]
			}
		})
		var hop func(src, n int) func()
		hop = func(src, n int) func() {
			return func() {
				k := parts[src]
				local[src] = append(local[src], entry{k.Now(), fmt.Sprintf("p%d@%d", src, k.Now())})
				if n >= 50 {
					return
				}
				eng.Send(src, 1-src, k.Now().Add(2*Millisecond), "hop", hop(1-src, n+1))
			}
		}
		parts[0].At(0, "seed", hop(0, 0))
		for i := 0; i < 100; i++ {
			at := Time(i) * Time(Millisecond)
			parts[2].At(at, "local", func() {
				local[2] = append(local[2], entry{parts[2].Now(), fmt.Sprintf("p2@%d", parts[2].Now())})
			})
		}
		eng.Run(parallel)
		return merged, eng.Stats()
	}
	serial, sst := run(false)
	par, pst := run(true)
	if !reflect.DeepEqual(serial, par) {
		t.Fatalf("serial and parallel logs differ:\nserial: %v\nparallel: %v", serial, par)
	}
	if sst != pst {
		t.Fatalf("serial stats %+v != parallel stats %+v", sst, pst)
	}
	if len(serial) != 51+100 {
		t.Fatalf("got %d events, want %d", len(serial), 151)
	}
	// 51 ping-pong hops need ≥ 25 rounds; partition 2 may be active in
	// at most 2 of them (its 99 ms of work fits far inside one 200 ms
	// horizon). A lockstep engine would show ActiveSum ≈ 2×Windows.
	if sst.Windows < 10 {
		t.Fatalf("suspiciously few rounds: %+v", sst)
	}
	if sst.ActiveSum > sst.Windows+2 {
		t.Fatalf("slow partition dragged into lockstep: %+v", sst)
	}
}

func TestEngineNullHorizonRoundTripSafety(t *testing.T) {
	// Partition 1 starts empty; partition 0 has a far-future local event
	// at 10 ms plus a chain that bounces off partition 1 and returns at
	// 4 ms. The demand-driven null horizon must price the round trip
	// (L[0][1] + L[1][0]) so partition 0 does not run to 10 ms before
	// the 4 ms reply lands in its past.
	var log []string
	parts := []*Kernel{New(1), New(2)}
	eng := NewEngineMatrix(parts, uniform(len(parts), Millisecond))
	parts[0].At(Time(10*Millisecond), "far", func() {
		log = append(log, "far@10ms")
	})
	parts[0].At(0, "start", func() {
		eng.Send(0, 1, parts[0].Now().Add(2*Millisecond), "ping", func() {
			eng.Send(1, 0, parts[1].Now().Add(2*Millisecond), "pong", func() {
				log = append(log, "pong@4ms")
			})
		})
	})
	eng.Run(false)
	want := []string{"pong@4ms", "far@10ms"}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("log %v, want %v", log, want)
	}
	if st := eng.Stats(); st.NullPublishes == 0 {
		t.Fatalf("expected null horizons to be published: %+v", st)
	}
}

func TestEngineSkipsIdleTime(t *testing.T) {
	// Two partitions with events 1 hour apart: rounds must jump, not
	// crawl in lookahead-sized steps. Executed counts prove only the
	// scheduled events ran.
	parts := []*Kernel{New(1), New(2)}
	eng := NewEngineMatrix(parts, uniform(len(parts), Millisecond))
	var fired int
	for i := 0; i < 5; i++ {
		at := Time(i) * Time(Hour)
		parts[i%2].At(at, "sparse", func() { fired++ })
	}
	last := eng.Run(false)
	if fired != 5 {
		t.Fatalf("fired %d of 5", fired)
	}
	if want := Time(4) * Time(Hour); last != want {
		t.Fatalf("final time %v, want %v", last, want)
	}
	st := eng.Stats()
	if st.Windows == 0 || st.Windows > 10 {
		t.Fatalf("unexpected round count: %+v", st)
	}
}

func TestEngineReturnsLastEventTime(t *testing.T) {
	parts := []*Kernel{New(1), New(2)}
	eng := NewEngineMatrix(parts, uniform(len(parts), Millisecond))
	parts[0].At(10, "a", func() {})
	parts[1].At(Time(3*Second), "b", func() {})
	if got := eng.Run(true); got != Time(3*Second) {
		t.Fatalf("last event time %v, want %v", got, Time(3*Second))
	}
}

func TestEngineFinalBarrierWatermarkIsMax(t *testing.T) {
	parts := []*Kernel{New(1), New(2)}
	eng := NewEngineMatrix(parts, uniform(len(parts), Millisecond))
	var last Time
	eng.OnBarrier(func(w Time) { last = w })
	parts[0].At(0, "a", func() {})
	eng.Run(false)
	if last != maxTime {
		t.Fatalf("final watermark %v, want maxTime", last)
	}
}

// uniform is a lookahead matrix separating every pair of n partitions by d.
func uniform(n int, d Duration) [][]Duration {
	lat := make([][]Duration, n)
	for i := range lat {
		lat[i] = make([]Duration, n)
		for j := range lat[i] {
			if i != j {
				lat[i][j] = d
			}
		}
	}
	return lat
}

// TestXferIsOneCacheLine: every cross-partition message is copied
// through the outbox, staging and inbox slices, so it stays 64 B.
func TestXferIsOneCacheLine(t *testing.T) {
	if size := unsafe.Sizeof(xfer{}); size != 64 {
		t.Errorf("xfer is %d B, want 64", size)
	}
}
