package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"fxnet/internal/faults"
	"fxnet/internal/kernels"
	"fxnet/internal/sim"
	"fxnet/internal/trace"
)

func TestParseTopology(t *testing.T) {
	topo, err := ParseTopology("lan0:0-15@100~2ms,lan1:16-31")
	if err != nil {
		t.Fatal(err)
	}
	if len(topo.Segments) != 2 {
		t.Fatalf("got %d segments", len(topo.Segments))
	}
	s0 := topo.Segments[0]
	if s0.Name != "lan0" || len(s0.Hosts) != 16 || s0.BitRate != 100e6 || s0.TrunkLatency != 2*sim.Millisecond {
		t.Fatalf("segment 0 parsed wrong: %+v", s0)
	}
	if topo.Segments[1].TrunkLatency != 0 {
		t.Fatalf("segment 1 latency should be unset (default)")
	}
	if m := topo.LookaheadMatrix(); m[0][1] != 3*sim.Millisecond || m[1][0] != 3*sim.Millisecond {
		t.Fatalf("lookahead matrix %v, want 3ms off-diagonal (2ms + default 1ms)", m)
	}
	if err := topo.ValidateFor(32); err != nil {
		t.Fatal(err)
	}
	if err := topo.ValidateFor(16); err == nil {
		t.Fatal("accepted placement with 32 pins for 16 processors")
	}
}

func TestParseTopologyRejects(t *testing.T) {
	bad := []string{
		"",                     // empty
		"lan0",                 // no hosts
		"lan0:0-1,lan0:2-3",    // duplicate name
		"lan0:0-1,lan1:1-2",    // host pinned twice
		"lan0:0-1~0ms,lan1:2",  // zero trunk latency
		"lan0:0-1~-5ms,lan1:2", // negative trunk latency
		"lan0:0-1@0,lan1:2",    // zero bit rate
		"lan0:0-1@-10,lan1:2",  // negative bit rate
		"la n0:0-1",            // bad name
		"lan0:a-b",             // bad range
		"lan0:5-2",             // inverted range
		"lan0:0-65535",         // beyond address space
		"lan0:",                // empty hosts
	}
	for _, spec := range bad {
		if _, err := ParseTopology(spec); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
}

// LoadTopology reads the same topology from an inline spec, an @file in
// spec syntax and an @file in JSON; empty is the shared segment.
func TestLoadTopology(t *testing.T) {
	const spec = "lan0:0-1,lan1:2-3"
	dir := t.TempDir()
	specFile, jsonFile := dir+"/topo.spec", dir+"/topo.json"
	if err := os.WriteFile(specFile, []byte(spec+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	js := `{"segments":[{"name":"lan0","hosts":[0,1]},{"name":"lan1","hosts":[2,3]}]}`
	if err := os.WriteFile(jsonFile, []byte(js), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, arg := range []string{spec, "@" + specFile, "@" + jsonFile} {
		topo, err := LoadTopology(arg)
		if err != nil {
			t.Fatalf("%s: %v", arg, err)
		}
		if got := topo.Spec(); got != spec {
			t.Errorf("%s: spec %q, want %q", arg, got, spec)
		}
	}
	if topo, err := LoadTopology(""); topo != nil || err != nil {
		t.Errorf("empty argument: %v, %v; want the shared segment", topo, err)
	}
	if _, err := LoadTopology("@" + dir + "/missing"); err == nil {
		t.Error("missing @file accepted")
	}
}

func TestTopologySpecRoundTrip(t *testing.T) {
	for _, spec := range []string{
		"lan0:0-15,lan1:16-31",
		"lan0:0-7@100~2ms,lan1:8-15~500us",
		"a:0,b:1,c:2,d:3",
		"lan0:0-1+3,lan1:2",
	} {
		topo, err := ParseTopology(spec)
		if err != nil {
			t.Fatalf("%q: %v", spec, err)
		}
		if got := topo.Spec(); got != spec {
			t.Errorf("Spec() = %q, want %q", got, spec)
		}
		// JSON round trip preserves the canonical spec.
		data, err := json.Marshal(topo)
		if err != nil {
			t.Fatal(err)
		}
		topo2, err := ParseTopologyJSON(data)
		if err != nil {
			t.Fatalf("%q: JSON round trip: %v", spec, err)
		}
		if topo2.Spec() != spec {
			t.Errorf("JSON round trip Spec() = %q, want %q", topo2.Spec(), spec)
		}
	}
}

func FuzzParseTopology(f *testing.F) {
	f.Add("lan0:0-15,lan1:16-31")
	f.Add("lan0:0-7@100~2ms,lan1:8-15~500us")
	f.Add("lan0:0-1~0ms")
	f.Add("a:0,a:1")
	f.Add("x:0-300")
	f.Add("seg:1+2+3@0.5~1ns")
	f.Fuzz(func(t *testing.T, spec string) {
		topo, err := ParseTopology(spec)
		if err != nil {
			return
		}
		// Any accepted topology must satisfy its own invariants...
		if err := topo.Validate(); err != nil {
			t.Fatalf("parsed %q but Validate: %v", spec, err)
		}
		for i := range topo.Segments {
			if topo.Segments[i].TrunkLatency < 0 {
				t.Fatalf("parsed %q with negative latency", spec)
			}
		}
		if m := topo.LookaheadMatrix(); len(topo.Segments) > 1 {
			for i := range m {
				for j := range m[i] {
					if i != j && m[i][j] <= 0 {
						t.Fatalf("parsed %q with non-positive lookahead L[%d][%d]", spec, i, j)
					}
				}
			}
		}
		// ...and its canonical form must be a fixed point.
		canon, err := ParseTopology(topo.Spec())
		if err != nil {
			t.Fatalf("canonical spec %q of %q rejected: %v", topo.Spec(), spec, err)
		}
		if canon.Spec() != topo.Spec() {
			t.Fatalf("canonical spec not stable: %q → %q", topo.Spec(), canon.Spec())
		}
	})
}

func TestLookaheadMatrixShapes(t *testing.T) {
	ms := sim.Millisecond
	us := sim.Microsecond
	cases := []struct {
		name string
		spec string
		want map[[2]int]sim.Duration // spot checks; omitted pairs unchecked
	}{
		{
			// Star of equals: every pair costs two default trunks.
			name: "star-uniform",
			spec: "a:0,b:1,c:2,d:3",
			want: map[[2]int]sim.Duration{
				{0, 1}: 2 * ms, {1, 2}: 2 * ms, {0, 3}: 2 * ms, {3, 0}: 2 * ms,
			},
		},
		{
			// Single trunk pair: the degenerate two-segment fabric.
			name: "single-trunk",
			spec: "left:0-1~500us,right:2-3~500us",
			want: map[[2]int]sim.Duration{{0, 1}: 1 * ms, {1, 0}: 1 * ms},
		},
		{
			// Chain-like spread: a fast middle segment is near both
			// slow ends, but the ends stay far from each other — the
			// per-pair structure a scalar lookahead collapses.
			name: "chain-fast-middle",
			spec: "west:0~2ms,mid:1~100us,east:2~2ms",
			want: map[[2]int]sim.Duration{
				{0, 1}: 2*ms + 100*us,
				{1, 2}: 2*ms + 100*us,
				{0, 2}: 4 * ms,
			},
		},
		{
			// Asymmetric latencies: each pair prices its own trunks.
			name: "asymmetric",
			spec: "a:0~1ms,b:1~3ms,c:2~7ms",
			want: map[[2]int]sim.Duration{
				{0, 1}: 4 * ms, {0, 2}: 8 * ms, {1, 2}: 10 * ms,
			},
		},
	}
	for _, tc := range cases {
		topo, err := ParseTopology(tc.spec)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		m := topo.LookaheadMatrix()
		n := len(topo.Segments)
		for pair, want := range tc.want {
			if got := m[pair[0]][pair[1]]; got != want {
				t.Errorf("%s: L[%d][%d] = %v, want %v", tc.name, pair[0], pair[1], got, want)
			}
		}
		for i := 0; i < n; i++ {
			if m[i][i] != 0 {
				t.Errorf("%s: diagonal L[%d][%d] = %v", tc.name, i, i, m[i][i])
			}
			for j := 0; j < n; j++ {
				if m[i][j] != m[j][i] {
					t.Errorf("%s: asymmetric star matrix L[%d][%d]=%v L[%d][%d]=%v",
						tc.name, i, j, m[i][j], j, i, m[j][i])
				}
				// Path-closure: no relay can beat the direct entry, the
				// property the engine's horizon math relies on.
				for k := 0; k < n; k++ {
					if i != j && k != i && k != j && m[i][k]+m[k][j] < m[i][j] {
						t.Errorf("%s: L[%d][%d]=%v undercut via %d (%v)",
							tc.name, i, j, m[i][j], k, m[i][k]+m[k][j])
					}
				}
			}
		}
	}
}

func TestLookaheadMatrixSingleSegmentNil(t *testing.T) {
	topo, err := ParseTopology("lan0:0-3")
	if err != nil {
		t.Fatal(err)
	}
	if m := topo.LookaheadMatrix(); m != nil {
		t.Fatalf("single-segment matrix = %v, want nil", m)
	}
}

func TestTopologyWideHostRange(t *testing.T) {
	// The parser accepts thousand-host pins now that trace addresses
	// are 16-bit; only the broadcast address stays reserved.
	topo, err := ParseTopology("lan0:0-1023,lan1:1024-2047")
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.ValidateFor(2048); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseTopology("lan0:0-65534"); err == nil {
		t.Fatal("accepted 65535 hosts; 0xFFFF must stay reserved for broadcast")
	}
}

// topoDigest runs cfg with the given PDES mode and returns the binary
// trace digest.
func topoDigest(t *testing.T, cfg RunConfig, mode PDESMode) string {
	t.Helper()
	res, err := RunWithOpts(cfg, RunOpts{PDES: mode})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	if err := res.Trace.WriteBinary(h); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestTopologySerialParallelIdentical(t *testing.T) {
	for _, spec := range []string{"lan0:0-1,lan1:2-3", "a:0,b:1,c:2,d:3"} {
		topo, err := ParseTopology(spec)
		if err != nil {
			t.Fatal(err)
		}
		// Frame loss is partition-local (each segment draws from its own
		// kernel's stream), so it is one more schedule-invariant input.
		for _, loss := range []float64{0, 0.02} {
			cfg := RunConfig{
				Program: "2dfft", Seed: 7, P: 4,
				Params:        kernels.Params{N: 16, Iters: 3},
				Topology:      topo,
				FrameLossProb: loss,
			}
			serial := topoDigest(t, cfg, PDESSerial)
			parallel := topoDigest(t, cfg, PDESParallel)
			if serial != parallel {
				t.Errorf("%s loss=%g: serial digest %s != parallel digest %s", spec, loss, serial, parallel)
			}
			if loss == 0 {
				continue
			}
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.SegStats.Corrupted == 0 {
				t.Errorf("%s loss=%g: no corrupted frames recorded", spec, loss)
			}
		}
	}
}

// PDESAuto follows GOMAXPROCS, not the host's CPU count: under
// GOMAXPROCS=1 the engine would have no helper to share rounds with.
func TestPDESAutoFollowsGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if PDESAuto.parallel() {
		t.Error("GOMAXPROCS=1: auto took the parallel branch")
	}
	if !PDESParallel.parallel() || PDESSerial.parallel() {
		t.Error("GOMAXPROCS=1: a forced mode did not hold")
	}
	runtime.GOMAXPROCS(2)
	if !PDESAuto.parallel() {
		t.Error("GOMAXPROCS=2: auto took the serial branch")
	}
}

func TestTopologyTrafficVolume(t *testing.T) {
	// A switched 2-segment run must carry roughly the same payload
	// volume as the shared-segment baseline — same program, same data.
	topo, err := ParseTopology("lan0:0-1,lan1:2-3")
	if err != nil {
		t.Fatal(err)
	}
	cfg := RunConfig{Program: "2dfft", Seed: 1, Params: kernels.Params{N: 32, Iters: 5}}
	base, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Topology = topo
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace.Len() == 0 {
		t.Fatal("no packets captured on topology run")
	}
	got, want := res.Trace.TotalBytes(), base.Trace.TotalBytes()
	if got < want*9/10 || got > want*11/10 {
		t.Errorf("topology bytes %d far from shared %d", got, want)
	}
	if res.Trace.Meta["topology"] != topo.Spec() {
		t.Errorf("trace meta topology = %q", res.Trace.Meta["topology"])
	}
}

func TestTopologySingleSegment(t *testing.T) {
	// A one-segment topology is one partition: the bare kernel loop, no
	// engine, whatever PDES mode is asked for.
	topo, err := ParseTopology("lan0:0-3")
	if err != nil {
		t.Fatal(err)
	}
	cfg := RunConfig{
		Program: "sor", Seed: 3, P: 4,
		Params:   kernels.Params{N: 16, Iters: 2},
		Topology: topo,
	}
	if s, p := topoDigest(t, cfg, PDESSerial), topoDigest(t, cfg, PDESParallel); s != p {
		t.Fatalf("single-segment serial %s != parallel %s", s, p)
	}
	res, err := RunWithOpts(cfg, RunOpts{PDES: PDESParallel})
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine != (sim.EngineStats{}) {
		t.Errorf("one partition reported engine activity: %+v", res.Engine)
	}
}

// The refusal rule, fabric × feature: what needs a single partition is
// refused on two segments with an error naming the feature and the
// reason, and accepted on a one-segment topology exactly as on the nil
// one; what needs a different medium is refused on both.
func TestTopologyRejectsIncompatibleFeatures(t *testing.T) {
	two, err := ParseTopology("lan0:0-1,lan1:2-3")
	if err != nil {
		t.Fatal(err)
	}
	one, err := ParseTopology("lan0:0-3")
	if err != nil {
		t.Fatal(err)
	}
	base := RunConfig{
		Program: "sor", Seed: 31, P: 4,
		Params:         kernels.Params{N: 512, Iters: 12},
		DisableDesched: true,
		Topology:       one,
	}
	third := probeEnd(t, base) / 3
	crash := (&faults.Schedule{Faults: []faults.Fault{{At: third, Kind: faults.HostCrash, Host: "host2"}}}).String()
	flap := (&faults.Schedule{Faults: []faults.Fault{
		{At: third, Kind: faults.LinkDown, Host: "host2"},
		{At: 2 * third, Kind: faults.LinkUp, Host: "host2"},
	}}).String()
	cases := []struct {
		name   string
		mutate func(*RunConfig)
		// refusal names the feature and the reason on two segments.
		refusal []string
		// onePartition: accepted on lan0:0-3; check inspects that run.
		onePartition bool
		check        func(*testing.T, *Result)
	}{
		{"switched", func(c *RunConfig) { c.Switched = true },
			[]string{"Switched with Topology", "fabric of its own"}, false, nil},
		{"guarantee", func(c *RunConfig) { c.GuaranteeProgram = true },
			[]string{"GuaranteeProgram without Switched", "egress queues"}, false, nil},
		{"wrongP", func(c *RunConfig) { c.P = 8 },
			[]string{"pins 4 hosts", "8 processors"}, false, nil},
		{"faults", func(c *RunConfig) { c.FaultScript = flap },
			[]string{"fault injection", "one partition's clock"}, true,
			func(t *testing.T, res *Result) {
				if len(res.Trace.Marks) != 2 {
					t.Errorf("marks = %v, want linkdown and linkup", res.Trace.Marks)
				}
				if res.SegStats.Dropped == 0 {
					t.Error("the severed link dropped no frames")
				}
			}},
		{"degrade", func(c *RunConfig) { c.Degrade = true },
			[]string{"Degrade", "shared by every partition"}, true, nil},
		{"crash+degrade", func(c *RunConfig) { c.FaultScript, c.Degrade = crash, true },
			[]string{"fault injection", "one partition's clock"}, true,
			func(t *testing.T, res *Result) {
				if res.RunErr != nil {
					t.Fatalf("degraded run aborted: %v", res.RunErr)
				}
				if finalP := len(res.Workers); finalP >= 4 || res.Trace.Meta["finalP"] != fmt.Sprint(finalP) {
					t.Errorf("finalP = %d (meta %q), want fewer than P=4", finalP, res.Trace.Meta["finalP"])
				}
			}},
		{"crosstraffic", func(c *RunConfig) { c.CrossTrafficKBps = 100 },
			[]string{"CrossTrafficKBps", "not a function of virtual time"}, true,
			func(t *testing.T, res *Result) {
				video := len(res.Trace.Hosts) - 1
				if res.Trace.Hosts[video] != "video" || res.Trace.Filter(func(p trace.Packet) bool { return int(p.Src) == video }).Len() == 0 {
					t.Errorf("no cross traffic from the video host (hosts %v)", res.Trace.Hosts)
				}
			}},
	}
	for _, tc := range cases {
		cfg := base
		cfg.Topology = two
		tc.mutate(&cfg)
		err := Validate(cfg)
		if err == nil {
			t.Errorf("%s: accepted on %s", tc.name, two.Spec())
			continue
		}
		for _, want := range tc.refusal {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: refusal %q does not say %q", tc.name, err, want)
			}
		}
		if _, runErr := Run(cfg); runErr == nil || runErr.Error() != err.Error() {
			t.Errorf("%s: Run error %v, Validate error %v", tc.name, runErr, err)
		}

		cfg.Topology = one
		if !tc.onePartition {
			if err := Validate(cfg); err == nil {
				t.Errorf("%s: accepted on %s", tc.name, one.Spec())
			}
			continue
		}
		res, err := RunWithOpts(cfg, RunOpts{PDES: PDESSerial})
		if err != nil {
			t.Errorf("%s: refused on %s: %v", tc.name, one.Spec(), err)
			continue
		}
		if tc.check != nil {
			tc.check(t, res)
		}
		if s, p := topoDigest(t, cfg, PDESSerial), topoDigest(t, cfg, PDESParallel); s != p {
			t.Errorf("%s on %s: serial %s != parallel %s", tc.name, one.Spec(), s, p)
		}
	}
}

// Stream mode's O(windows) contract holds on a one-segment topology: the
// single partition taps its segment directly, so the run allocates what
// the same run on the nil topology does, not a buffered whole capture.
func TestTopologySingleSegmentStreamAlloc(t *testing.T) {
	topo, err := ParseTopology("lan0:0-3")
	if err != nil {
		t.Fatal(err)
	}
	cfg := RunConfig{Program: "seq", Seed: 1, P: 4, Params: kernels.Params{N: 64}}
	alloc := func(cfg RunConfig) (uint64, int) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, rep, err := RunStream(cfg)
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, rep.AggSize.N
	}
	shared, nShared := alloc(cfg)
	cfg.Topology = topo
	single, nSingle := alloc(cfg)
	if nShared != nSingle {
		t.Fatalf("packet counts differ: %d shared, %d one-segment", nShared, nSingle)
	}
	if float64(single) > 1.2*float64(shared) {
		t.Errorf("one-segment stream run allocated %d bytes, nil-topology run %d (> 1.2×) over %d packets", single, shared, nShared)
	}
}

func TestTopologyStreamMatchesRetained(t *testing.T) {
	// The streaming characterizer must see the identical packet order
	// the retained trace records.
	topo, err := ParseTopology("lan0:0-1,lan1:2-3")
	if err != nil {
		t.Fatal(err)
	}
	cfg := RunConfig{
		Program: "sor", Seed: 5, P: 4,
		Params:   kernels.Params{N: 16, Iters: 2},
		Topology: topo,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := Characterize(res)
	_, rep, err := RunStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.AggSize.N != want.AggSize.N || rep.AggKBps != want.AggKBps {
		t.Fatalf("stream (%d pkts, %.3f KB/s) != retained (%d pkts, %.3f KB/s)",
			rep.AggSize.N, rep.AggKBps, want.AggSize.N, want.AggKBps)
	}
	if !strings.Contains(res.Trace.Meta["topology"], "lan0") {
		t.Fatal("missing topology meta")
	}
}
