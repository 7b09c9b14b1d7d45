package farm

import (
	"reflect"
	"testing"

	"fxnet/internal/core"
	"fxnet/internal/fx"
	"fxnet/internal/kernels"
)

// keyMutators perturbs every core.RunConfig field. TestKeyCoversAllFields
// walks the struct by reflection and fails if a field has no mutator, so
// a new RunConfig field cannot silently escape the cache key.
var keyMutators = map[string]func(*core.RunConfig){
	"Program":           func(c *core.RunConfig) { c.Program = "t2dfft" },
	"P":                 func(c *core.RunConfig) { c.P = 8 },
	"Params":            func(c *core.RunConfig) { c.Params = kernels.Params{N: 128, Iters: 3} },
	"AirshedParams":     func(c *core.RunConfig) { c.AirshedParams.Layers = 9 },
	"Seed":              func(c *core.RunConfig) { c.Seed = 99 },
	"BitRate":           func(c *core.RunConfig) { c.BitRate = 40e6 },
	"Cost":              func(c *core.RunConfig) { c.Cost = &fx.CostModel{DefaultRate: 1e6} },
	"DisableDesched":    func(c *core.RunConfig) { c.DisableDesched = true },
	"ForceCopyLoop":     func(c *core.RunConfig) { c.ForceCopyLoop = true },
	"KeepaliveInterval": func(c *core.RunConfig) { c.KeepaliveInterval = -1 },
	"FrameLossProb":     func(c *core.RunConfig) { c.FrameLossProb = 0.02 },
	"Switched":          func(c *core.RunConfig) { c.Switched = true },
	"Nagle":             func(c *core.RunConfig) { c.Nagle = true },
	"CrossTrafficKBps":  func(c *core.RunConfig) { c.CrossTrafficKBps = 500 },
	"GuaranteeProgram":  func(c *core.RunConfig) { c.GuaranteeProgram = true },
	"FaultScript":       func(c *core.RunConfig) { c.FaultScript = "5s:linkdown host2" },
	"Degrade":           func(c *core.RunConfig) { c.Degrade = true },
	"Topology":          func(c *core.RunConfig) { c.Topology = mustTopology("lan0:0-1,lan1:2-3") },
}

func mustTopology(spec string) *core.Topology {
	t, err := core.ParseTopology(spec)
	if err != nil {
		panic(err)
	}
	return t
}

func TestKeyCoversAllFields(t *testing.T) {
	typ := reflect.TypeOf(core.RunConfig{})
	base := core.RunConfig{Program: "2dfft", Seed: 1}
	baseKey := Key(base)
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		mut, ok := keyMutators[name]
		if !ok {
			t.Errorf("RunConfig.%s has no key mutator: extend farm.Key and this table", name)
			continue
		}
		cfg := base
		mut(&cfg)
		if Key(cfg) == baseKey {
			t.Errorf("mutating RunConfig.%s does not change the cache key", name)
		}
	}
	if len(keyMutators) != typ.NumField() {
		t.Errorf("mutator table has %d entries for %d fields", len(keyMutators), typ.NumField())
	}
}

func TestKeyDeterministic(t *testing.T) {
	cfg := core.RunConfig{
		Program: "sor", Seed: 7, P: 4,
		Cost: &fx.CostModel{
			DefaultRate: 2e6,
			Rates:       map[string]float64{"a": 1, "b": 2, "c": 3, "d": 4, "e": 5},
		},
	}
	k0 := Key(cfg)
	for i := 0; i < 20; i++ { // map-order independence
		if k := Key(cfg); k != k0 {
			t.Fatalf("key not deterministic: %s vs %s", k, k0)
		}
	}
	if len(k0) != 64 {
		t.Fatalf("key %q is not a sha256 hex digest", k0)
	}
}

// TestKeyTopologyVersioned pins the versioned-extension contract: a nil
// topology contributes nothing to the hash (pre-topology keys and cache
// entries stay valid), and equivalent specs hash identically through the
// canonical form.
func TestKeyTopologyVersioned(t *testing.T) {
	base := core.RunConfig{Program: "2dfft", Seed: 1}
	const pretopology = "f53c0ab5b72235a888b866d28e16f033e2f7e69aff95a9c7811b85a42db260d9"
	if k := Key(base); k != pretopology {
		t.Errorf("nil-topology key changed: %s", k)
	}
	a := base
	a.Topology = mustTopology("lan0:0-1,lan1:2-3")
	b := base
	b.Topology = mustTopology("lan0:0+1,lan1:2+3")
	if Key(a) != Key(b) {
		t.Error("equivalent topologies hash differently")
	}
	if Key(a) == Key(base) {
		t.Error("topology did not change the key")
	}
}

// TestKeyPins holds the key of one config per feature group to the bytes
// written before RunConfig lost its ForceFragments, Net, Faults and
// HeartbeatMisses fields: the cache entries written then still hit.
func TestKeyPins(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  core.RunConfig
		want string
	}{
		{"fault script", core.RunConfig{Program: "sor", Seed: 7, FaultScript: "5s:linkdown host2,7s:linkup host2"},
			"53ad233efae6e49c2251848cdddbb750304a4681dd23f76c903dd7cf29c53462"},
		{"nagle+cross traffic", core.RunConfig{Program: "seq", P: 4, Seed: 3, Nagle: true, CrossTrafficKBps: 200},
			"7338aca63feff5e804d4d0227dcfcd401d05cdf8c870cf9a4071fc7edf7561eb"},
		{"switched+guarantee", core.RunConfig{Program: "2dfft", Seed: 1, Switched: true, GuaranteeProgram: true},
			"a3d30f79c5aecf68664b1e8549183a98a8d1b4813baca61c66c7b052bfc27076"},
		{"one-segment topology", core.RunConfig{Program: "sor", Seed: 1, Topology: mustTopology("lan0:0-3")},
			"4c9d61baeb2000ea6642908b1c9e208d0e7e2366a310f4e758c297fcc7368b1c"},
	} {
		if got := Key(tc.cfg); got != tc.want {
			t.Errorf("%s: key %s, want %s", tc.name, got, tc.want)
		}
	}
}
