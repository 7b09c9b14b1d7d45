package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"fxnet/internal/core"
	"fxnet/internal/kernels"
)

// Golden trace digests for the -quick programs on multi-segment
// topologies: every program runs on a 2-segment and a 4-segment switched
// network, and the pinned digest must come out of BOTH the serial and the
// parallel execution of the partitioned engine — the byte-identical-trace
// contract of the conservative PDES kernel (DESIGN.md §13).
//
// Like goldenQuickDigests, these are a determinism contract: a mismatch
// means event ordering, trunk latency accounting, the barrier capture
// merge, or the trace codec changed behaviour.
//
// Re-pinned when the engine moved from a single global lookahead window
// to per-pair horizons with distributed pvm exit propagation: the
// multi-segment round schedule (and therefore same-instant interleaving
// across trunks) legitimately changed. Single-segment goldens in
// golden_test.go were unaffected, and serial and parallel execution
// still produce these exact bytes.
var goldenTopologyDigests = map[string]map[string]string{
	// Hosts 0-3 split pairwise across two segments.
	"lan0:0-1,lan1:2-3": {
		"sor":     "5d2c5685c4dc93890b091531b883d2d21026bd3c79b6cc5da1479f5749161012",
		"2dfft":   "673731284360b3e1aaccc3926b6c52756d253f5a5e01de7347ff07584b5e0e88",
		"t2dfft":  "579decd5ebc7107e050c6d6f386979c44de0eced11dbdaa0d012def2de9e3c85",
		"seq":     "7cf84500e931a1f8c0f01e00eccb220468385ef7feff27bbb2008eeae83df923",
		"hist":    "52c0dbccc7fd7a0c34d5adb85ea1bc86c5293ef7d823ecde6e7be9747f44207f",
		"airshed": "9bea730f3f9f4745c9850437c91199c920848e29b89ef5953e9455a96e490da7",
	},
	// One host per segment — every frame crosses a trunk.
	"lan0:0,lan1:1,lan2:2,lan3:3": {
		"sor":     "b9162cfbbd3411d05b00dcd739888757782b202e29a46ab718846acd76fe78dc",
		"2dfft":   "c190e2b72240608e63b2b286da588d9b65b0f9fc3130b50beed78ff4c11d798a",
		"t2dfft":  "b8fe93ff627ce97570514aba26400739c19a2e03b72f0e71da4b59be9335b6bf",
		"seq":     "a799b84aa96b2fe83d08e87ab83f5c5e46104b85761bc348a404aa5cd5cdc424",
		"hist":    "58276e02f18482fe82dbcd05057ee05cff56135ed6184c470fe393b5b852646a",
		"airshed": "598e7d56ea0cb32a7df163fab68d28a94ce5f6c0dd188bf10eb5ddc3e8e9c625",
	},
}

// goldenWideTopologies pins the engine at width, each row with its own
// sizing: the 64-host run on asymmetric trunks that bench/expected.json
// also pins (one 0.1 ms trunk among 2 ms trunks, where per-pair horizons
// decide the round schedule), and 1024 hosts on 16 segments with the
// engine's own counters — a run whose bytes held but whose round count
// moved changed the schedule. Serial and parallel must both produce the
// pin. Never re-pin these: a moved digest means the event stream moved.
var goldenWideTopologies = []struct {
	name   string
	spec   string
	cfg    core.RunConfig
	digest string
	engine *engineCounts
}{
	{
		name:   "2dfft64",
		spec:   "lan0:0-15~2ms,lan1:16-31~2ms,lan2:32-47~100us,lan3:48-63~2ms",
		cfg:    core.RunConfig{Program: "2dfft", P: 64, Seed: 42, Params: kernels.Params{N: 256, Iters: 20}},
		digest: "7450d189389056f34830b88f690a639e0ff240db60a3f7f2af34e18ca469f6b6",
	},
	{
		name:   "hist1024",
		spec:   segments(16, 64),
		cfg:    core.RunConfig{Program: "hist", P: 1024, Seed: 42, Params: kernels.Params{N: 4096, Iters: 1}},
		digest: "f5553730dec6995d844b31870a33f9342fc26a571dddede5b448219321876c03",
		engine: &engineCounts{windows: 3350, crossMessages: 35652, nullPublishes: 0},
	},
}

// engineCounts are the Result.Engine counters a wide row pins.
type engineCounts struct{ windows, crossMessages, nullPublishes uint64 }

// segments is the spec of n equal segments of per consecutive hosts:
// "lan0:0-63,lan1:64-127,...".
func segments(n, per int) string {
	parts := make([]string, n)
	for i := range parts {
		parts[i] = fmt.Sprintf("lan%d:%d-%d", i, i*per, (i+1)*per-1)
	}
	return strings.Join(parts, ",")
}

// topologyDigest runs cfg on the given topology with the given execution
// mode and returns its binary trace digest and the engine's counters.
func topologyDigest(t testing.TB, cfg core.RunConfig, spec string, mode core.PDESMode) (string, engineCounts) {
	topo, err := core.ParseTopology(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Topology = topo
	res, err := core.RunWithOpts(cfg, core.RunOpts{PDES: mode})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	if err := res.Trace.WriteBinary(h); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil)),
		engineCounts{res.Engine.Windows, res.Engine.CrossMessages, res.Engine.NullPublishes}
}

// checkTopologyGolden holds one configuration to its pin under both
// execution modes.
func checkTopologyGolden(t *testing.T, cfg core.RunConfig, spec, want string, engine *engineCounts) {
	serial, counts := topologyDigest(t, cfg, spec, core.PDESSerial)
	parallel, parallelCounts := topologyDigest(t, cfg, spec, core.PDESParallel)
	if serial != parallel {
		t.Fatalf("serial/parallel divergence:\n serial   %s\n parallel %s\n"+
			"the conservative engine broke the byte-identical-trace contract",
			serial, parallel)
	}
	if serial != want {
		t.Errorf("topology trace digest changed:\n got  %s\n want %s", serial, want)
	}
	if engine != nil && (counts != *engine || parallelCounts != *engine) {
		t.Errorf("engine counters serial %+v parallel %+v, want %+v", counts, parallelCounts, *engine)
	}
}

func TestGoldenTopologyDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every -quick program twice per topology, and the two wide rows")
	}
	for spec, digests := range goldenTopologyDigests {
		for _, name := range core.ProgramNames() {
			t.Run(spec+"/"+name, func(t *testing.T) {
				t.Parallel()
				want, ok := digests[name]
				if !ok {
					t.Fatalf("no golden digest recorded for %q on %q", name, spec)
				}
				checkTopologyGolden(t, core.QuickConfig(name, 0, 42), spec, want, nil)
			})
		}
	}
	for _, row := range goldenWideTopologies {
		t.Run("wide/"+row.name, func(t *testing.T) {
			t.Parallel()
			checkTopologyGolden(t, row.cfg, row.spec, row.digest, row.engine)
		})
	}
}
