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
	const pretopology = "9f41ba1775bca1eb4dc2de50ef2b1eb6a02fd8d9eb203f6a59f9fc95edfe81c6"
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

// TestKeyPins holds the key of one config per feature group to its
// fxfarm-v2 bytes: removing a RunConfig field (ForceFragments, Net,
// Faults and HeartbeatMisses went this way) must not move a key, so the
// cache entries written before it still hit.
func TestKeyPins(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  core.RunConfig
		want string
	}{
		{"fault script", core.RunConfig{Program: "sor", Seed: 7, FaultScript: "5s:linkdown host2,7s:linkup host2"},
			"6f8c94f55efb5fd52d3c70b6a347cbc9a90661f30890c50be90593e35964c8d6"},
		{"nagle+cross traffic", core.RunConfig{Program: "seq", P: 4, Seed: 3, Nagle: true, CrossTrafficKBps: 200},
			"9eefe359a096cd7ce8469ac99d085fda8ae4bfe1cf74c66d6974027b317153fd"},
		{"switched+guarantee", core.RunConfig{Program: "2dfft", Seed: 1, Switched: true, GuaranteeProgram: true},
			"be707b6ffff86955021f6f408625bf8ec0abb4eff71209a3bf3abcc8165da8af"},
		{"one-segment topology", core.RunConfig{Program: "sor", Seed: 1, Topology: mustTopology("lan0:0-3")},
			"daaa3ded99aa648daaec1a6342a136e155d042b5cbe5cd800ada5d7df51766c0"},
	} {
		if got := Key(tc.cfg); got != tc.want {
			t.Errorf("%s: key %s, want %s", tc.name, got, tc.want)
		}
	}
}
