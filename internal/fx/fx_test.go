package fx

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"fxnet/internal/ethernet"
	"fxnet/internal/netstack"
	"fxnet/internal/pvm"
	"fxnet/internal/sim"
)

func launchTeam(t *testing.T, seed int64, p int, cost CostModel, body func(w *Worker)) (*sim.Kernel, *Team) {
	t.Helper()
	k := sim.New(seed)
	t.Cleanup(k.Close)
	seg := ethernet.NewSegment(k, 0)
	var hosts []*netstack.Host
	for i := 0; i < p; i++ {
		st := seg.Attach(fmt.Sprintf("h%d", i))
		hosts = append(hosts, netstack.NewHost(k, st, st.Name(), netstack.DefaultConfig()))
	}
	m := pvm.NewMachine(k, hosts, pvm.Config{})
	team := Launch(m, p, cost, "test", body)
	return k, team
}

func quietCost() CostModel {
	return CostModel{DefaultRate: 1e6, DeschedProb: 0, JitterFrac: 0}
}

func TestPatternConnections(t *testing.T) {
	cases := []struct {
		p    Pattern
		P    int
		want int
	}{
		{Neighbor, 4, 6}, {AllToAll, 4, 12}, {Partition, 4, 4},
		{Broadcast, 4, 3}, {Tree, 4, 6},
		{Neighbor, 8, 14}, {AllToAll, 8, 56}, {Partition, 8, 16},
		{AllToAll, 1, 0},
	}
	for _, c := range cases {
		if got := c.p.Connections(c.P); got != c.want {
			t.Errorf("%v.Connections(%d) = %d, want %d", c.p, c.P, got, c.want)
		}
	}
}

func TestPatternString(t *testing.T) {
	for p, want := range map[Pattern]string{
		Neighbor: "neighbor", AllToAll: "all-to-all", Partition: "partition",
		Broadcast: "broadcast", Tree: "tree",
	} {
		if p.String() != want {
			t.Errorf("String = %q, want %q", p.String(), want)
		}
	}
}

func TestBlockRange(t *testing.T) {
	// Even split.
	for r := 0; r < 4; r++ {
		lo, hi := BlockRange(512, 4, r)
		if lo != r*128 || hi != (r+1)*128 {
			t.Errorf("rank %d: [%d,%d)", r, lo, hi)
		}
	}
	// Remainder goes to the first ranks.
	sizes := []int{3, 3, 2, 2}
	covered := 0
	for r := 0; r < 4; r++ {
		lo, hi := BlockRange(10, 4, r)
		if hi-lo != sizes[r] {
			t.Errorf("rank %d owns %d items, want %d", r, hi-lo, sizes[r])
		}
		if lo != covered {
			t.Errorf("rank %d starts at %d, want %d", r, lo, covered)
		}
		covered = hi
	}
	if covered != 10 {
		t.Errorf("coverage = %d", covered)
	}
	for i := 0; i < 10; i++ {
		r := BlockOwner(10, 4, i)
		lo, hi := BlockRange(10, 4, r)
		if i < lo || i >= hi {
			t.Errorf("BlockOwner(%d) = %d out of its own range", i, r)
		}
	}
}

func TestNeighborExchange(t *testing.T) {
	const P = 4
	results := make([][2][]byte, P)
	k, _ := launchTeam(t, 1, P, quietCost(), func(w *Worker) {
		me := []byte{byte(w.Rank)}
		up, down := w.NeighborExchange(1, me, me)
		results[w.Rank] = [2][]byte{up, down}
	})
	k.Run()
	for r := 0; r < P; r++ {
		up, down := results[r][0], results[r][1]
		if r == 0 && up != nil {
			t.Error("rank 0 received from nonexistent prev")
		}
		if r > 0 && (up == nil || int(up[0]) != r-1) {
			t.Errorf("rank %d fromPrev = %v", r, up)
		}
		if r == P-1 && down != nil {
			t.Error("last rank received from nonexistent next")
		}
		if r < P-1 && (down == nil || int(down[0]) != r+1) {
			t.Errorf("rank %d fromNext = %v", r, down)
		}
	}
}

func TestAllToAll(t *testing.T) {
	const P = 4
	results := make([][][]byte, P)
	k, _ := launchTeam(t, 1, P, quietCost(), func(w *Worker) {
		parts := make([][]byte, P)
		for i := range parts {
			parts[i] = []byte{byte(w.Rank), byte(i)}
		}
		results[w.Rank] = w.AllToAll(10, parts)
	})
	k.Run()
	for r := 0; r < P; r++ {
		for i := 0; i < P; i++ {
			got := results[r][i]
			// Slot i must hold what rank i addressed to rank r.
			if len(got) != 2 || int(got[0]) != i || int(got[1]) != r {
				t.Errorf("rank %d slot %d = %v", r, i, got)
			}
		}
	}
}

func TestBcast(t *testing.T) {
	const P = 4
	results := make([][]byte, P)
	k, _ := launchTeam(t, 1, P, quietCost(), func(w *Worker) {
		var data []byte
		if w.Rank == 2 {
			data = []byte("hello")
		}
		results[w.Rank] = w.Bcast(2, 5, data)
	})
	k.Run()
	for r := 0; r < P; r++ {
		if string(results[r]) != "hello" {
			t.Errorf("rank %d got %q", r, results[r])
		}
	}
}

func TestReduceSum(t *testing.T) {
	for _, P := range []int{1, 2, 4, 8, 5} { // include non-power-of-two
		P := P
		var got []byte
		k, _ := launchTeam(t, 1, P, quietCost(), func(w *Worker) {
			data := []byte{byte(w.Rank + 1)}
			res := w.Reduce(3, data, func(a, b []byte) []byte {
				return []byte{a[0] + b[0]}
			})
			if w.Rank == 0 {
				got = res
			} else if res != nil {
				t.Errorf("P=%d rank %d returned non-nil", P, w.Rank)
			}
		})
		k.Run()
		want := byte(P * (P + 1) / 2)
		if len(got) != 1 || got[0] != want {
			t.Errorf("P=%d: reduce = %v, want %d", P, got, want)
		}
	}
}

// clock reports the worker's virtual time.
func clock(w *Worker) sim.Time { return w.task.Host().Kernel().Now() }

// barrier synchronizes the team the way Fx's schedules do: an empty tree
// reduce to rank 0, then an empty broadcast release.
func barrier(w *Worker, tag int) {
	w.Reduce(1<<20+tag, nil, func(a, b []byte) []byte { return nil })
	w.Bcast(0, 1<<20+tag+1, nil)
}

func TestBarrierSynchronizes(t *testing.T) {
	const P = 4
	var maxBefore, minAfter sim.Time
	minAfter = sim.Time(1 << 62)
	k, _ := launchTeam(t, 1, P, quietCost(), func(w *Worker) {
		// Stagger arrival: rank r works r×10 ms.
		w.task.Sleep(sim.Duration(w.Rank) * 10 * sim.Millisecond)
		if now := clock(w); now > maxBefore {
			maxBefore = now
		}
		barrier(w, 0)
		if now := clock(w); now < minAfter {
			minAfter = now
		}
	})
	k.Run()
	if minAfter < maxBefore {
		t.Errorf("a rank left the barrier at %v before the last arrived at %v", minAfter, maxBefore)
	}
}

func TestBarrierRepeats(t *testing.T) {
	const P = 4
	counts := make([]int, P)
	k, _ := launchTeam(t, 1, P, quietCost(), func(w *Worker) {
		for i := 0; i < 5; i++ {
			barrier(w, 2*i)
			counts[w.Rank]++
		}
	})
	k.Run()
	for r, c := range counts {
		if c != 5 {
			t.Errorf("rank %d completed %d barriers", r, c)
		}
	}
}

func TestComputeAdvancesTime(t *testing.T) {
	var elapsed sim.Time
	k, _ := launchTeam(t, 1, 1, CostModel{DefaultRate: 1e6}, func(w *Worker) {
		w.Compute("any", 2e6) // 2 s at 1e6 ops/s
		elapsed = clock(w)
	})
	k.Run()
	if elapsed < sim.Time(1900*sim.Millisecond) || elapsed > sim.Time(2200*sim.Millisecond) {
		t.Errorf("elapsed = %v, want ≈2 s", elapsed)
	}
}

func TestComputeClassRates(t *testing.T) {
	cost := CostModel{DefaultRate: 1e6, Rates: map[string]float64{"fast": 1e9}}
	var tFast, tSlow sim.Duration
	k, _ := launchTeam(t, 1, 1, cost, func(w *Worker) {
		start := clock(w)
		w.Compute("fast", 1e6)
		tFast = clock(w).Sub(start)
		start = clock(w)
		w.Compute("slow-unknown", 1e6)
		tSlow = clock(w).Sub(start)
	})
	k.Run()
	if tFast >= tSlow {
		t.Errorf("fast class %v not faster than default %v", tFast, tSlow)
	}
}

func TestDeschedulingInjection(t *testing.T) {
	cost := CostModel{DefaultRate: 1e6, DeschedProb: 1.0, DeschedMean: 100 * sim.Millisecond}
	var w0 *Worker
	k, _ := launchTeam(t, 1, 1, cost, func(w *Worker) {
		w0 = w
		for i := 0; i < 10; i++ {
			w.Compute("x", 1000)
		}
	})
	k.Run()
	if w0.Descheds != 10 {
		t.Errorf("descheds = %d, want 10", w0.Descheds)
	}
	// 10 ms of work + ~10 × 100 ms of stalls.
	if w0.ComputeTime < 200*sim.Millisecond {
		t.Errorf("compute time = %v implausibly small", w0.ComputeTime)
	}
}

func TestComputeZeroOpsNoTime(t *testing.T) {
	var elapsed sim.Time
	k, _ := launchTeam(t, 1, 1, quietCost(), func(w *Worker) {
		w.Compute("x", 0)
		elapsed = clock(w)
	})
	k.Run()
	if elapsed != 0 {
		t.Errorf("elapsed = %v", elapsed)
	}
}

func TestLaunchTooManyWorkersPanics(t *testing.T) {
	k := sim.New(1)
	seg := ethernet.NewSegment(k, 0)
	h := netstack.NewHost(k, seg.Attach("only"), "only", netstack.DefaultConfig())
	m := pvm.NewMachine(k, []*netstack.Host{h}, pvm.Config{})
	defer func() {
		if recover() == nil {
			t.Error("no panic launching P=2 on 1 host")
		}
	}()
	Launch(m, 2, quietCost(), "x", func(w *Worker) {})
}

func TestEncodeRoundtrips(t *testing.T) {
	f32 := []float32{1.5, -2.25, 0, 3e30}
	f32b := EncodeFloat32s(f32)
	gotF32 := make([]float32, 4)
	if DecodeFloat32s(gotF32, f32b); gotF32[1] != -2.25 || gotF32[3] != 3e30 {
		t.Errorf("float32 roundtrip = %v", gotF32)
	}
	if got := AppendFloat32s(AppendFloat32s([]byte{}, f32[:1]), f32[1:]); string(got) != string(EncodeFloat32s(f32)) {
		t.Errorf("AppendFloat32s in two pieces = %x, EncodeFloat32s = %x", got, EncodeFloat32s(f32))
	}
	c64 := []complex64{complex(1, -2), complex(0.5, 3)}
	c64b := EncodeComplex64s(c64)
	gotC64 := make([]complex64, 2)
	if DecodeComplex64s(gotC64, c64b); gotC64[0] != complex(1, -2) || gotC64[1] != complex(0.5, 3) {
		t.Errorf("complex64 roundtrip = %v", gotC64)
	}
	// The decoders fill the caller's slice: a kernel decodes every
	// message of a run into the same rows.
	if allocs := testing.AllocsPerRun(10, func() {
		DecodeFloat32s(gotF32, f32b)
		DecodeComplex64s(gotC64, c64b)
	}); allocs != 0 {
		t.Errorf("decoding into a caller's slice: %.1f allocs, want 0", allocs)
	}
	if got := AppendComplex64s(AppendComplex64s([]byte{}, c64[:1]), c64[1:]); string(got) != string(EncodeComplex64s(c64)) {
		t.Errorf("AppendComplex64s in two pieces = %x, EncodeComplex64s = %x", got, EncodeComplex64s(c64))
	}
	i64 := []int64{-5, 0, 1 << 40}
	if got := DecodeInt64s(EncodeInt64s(i64)); len(got) != 3 || got[0] != -5 || got[2] != 1<<40 {
		t.Errorf("int64 roundtrip = %v", got)
	}
}

func TestDecodeBadLengthPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"f32":       func() { DecodeFloat32s(make([]float32, 1), make([]byte, 3)) },
		"f32 long":  func() { DecodeFloat32s(make([]float32, 1), make([]byte, 8)) },
		"c64":       func() { DecodeComplex64s(make([]complex64, 1), make([]byte, 7)) },
		"c64 short": func() { DecodeComplex64s(make([]complex64, 2), make([]byte, 8)) },
		"i64":       func() { DecodeInt64s(make([]byte, 7)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic on bad length", name)
				}
			}()
			fn()
		}()
	}
}

func TestTeamDone(t *testing.T) {
	k, team := launchTeam(t, 1, 4, quietCost(), func(w *Worker) {
		barrier(w, 0)
	})
	if team.Done() {
		t.Error("Done before run")
	}
	k.Run()
	if !team.Done() {
		t.Error("not Done after run")
	}
}

func TestQuickBlockRangePartition(t *testing.T) {
	// Property: BlockRange partitions [0, n) exactly — contiguous,
	// disjoint, covering, with sizes differing by at most one.
	f := func(rawN, rawP uint8) bool {
		n := int(rawN)
		P := int(rawP)%16 + 1
		covered := 0
		minSize, maxSize := 1<<30, 0
		for r := 0; r < P; r++ {
			lo, hi := BlockRange(n, P, r)
			if lo != covered || hi < lo {
				return false
			}
			covered = hi
			if sz := hi - lo; sz < minSize {
				minSize = sz
			} else if sz > maxSize {
				maxSize = sz
			}
			_ = maxSize
		}
		if covered != n {
			return false
		}
		// Sizes differ by at most 1.
		var sizes []int
		for r := 0; r < P; r++ {
			lo, hi := BlockRange(n, P, r)
			sizes = append(sizes, hi-lo)
		}
		mn, mx := sizes[0], sizes[0]
		for _, s := range sizes {
			if s < mn {
				mn = s
			}
			if s > mx {
				mx = s
			}
		}
		return mx-mn <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickAllToAllDeliversEverything(t *testing.T) {
	// Property: for random part contents, AllToAll delivers rank i's
	// part for rank j to rank j, intact, for all (i, j).
	f := func(seed int64) bool {
		const P = 4
		rng := rand.New(rand.NewSource(seed))
		// Pre-generate the payload matrix parts[i][j].
		parts := make([][][]byte, P)
		for i := range parts {
			parts[i] = make([][]byte, P)
			for j := range parts[i] {
				b := make([]byte, 1+rng.Intn(300))
				rng.Read(b)
				parts[i][j] = b
			}
		}
		results := make([][][]byte, P)
		k := sim.New(seed)
		defer k.Close()
		seg := ethernet.NewSegment(k, 0)
		var hosts []*netstack.Host
		for i := 0; i < P; i++ {
			st := seg.Attach(fmt.Sprintf("h%d", i))
			hosts = append(hosts, netstack.NewHost(k, st, st.Name(), netstack.DefaultConfig()))
		}
		m := pvm.NewMachine(k, hosts, pvm.Config{})
		team := Launch(m, P, CostModel{DefaultRate: 1e12}, "prop", func(w *Worker) {
			results[w.Rank] = w.AllToAll(50, parts[w.Rank])
		})
		k.Run()
		if !team.Done() {
			return false
		}
		for j := 0; j < P; j++ {
			for i := 0; i < P; i++ {
				if !bytes.Equal(results[j][i], parts[i][j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
