package farm

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"

	"fxnet/internal/core"
	"fxnet/internal/fx"
)

// keyVersion namespaces cache keys. Bump it whenever the simulator's
// observable behaviour changes (a new transport default, a cost-model
// tweak, a trace-format change) or a stored Report's value does (v2: the
// pair statistic above stats' identity rule): old cache entries then
// simply miss and are recomputed, which is the only safe reaction to a
// semantic change.
const keyVersion = "fxfarm-v2"

// Key computes the content-addressed identity of a run configuration: two
// configs hash equal exactly when core.Run would produce byte-identical
// traces for them. Every field of core.RunConfig participates (a
// reflection test in key_test.go enforces that new fields cannot be added
// without extending this encoding).
func Key(cfg core.RunConfig) string {
	h := sha256.New()
	fmt.Fprintln(h, keyVersion)
	writeField(h, "program", cfg.Program)
	writeField(h, "p", cfg.P)
	writeField(h, "params", fmt.Sprintf("%d/%d", cfg.Params.N, cfg.Params.Iters))
	writeField(h, "airshed", fmt.Sprintf("%d/%d/%d/%d/%d/%d",
		cfg.AirshedParams.Layers, cfg.AirshedParams.Species, cfg.AirshedParams.Grid,
		cfg.AirshedParams.Steps, cfg.AirshedParams.Hours, cfg.AirshedParams.Band))
	writeField(h, "seed", cfg.Seed)
	writeField(h, "bitrate", cfg.BitRate)
	writeCost(h, cfg.Cost)
	writeField(h, "desched-off", cfg.DisableDesched)
	writeField(h, "force-copyloop", cfg.ForceCopyLoop)
	// A field RunConfig no longer has keeps its line with the value every
	// config had, so keys written before it went stay valid.
	writeField(h, "force-fragments", false)
	writeField(h, "net", "0/0/0/0/0/false/0/0")
	writeField(h, "keepalive", int64(cfg.KeepaliveInterval))
	writeField(h, "loss", cfg.FrameLossProb)
	writeField(h, "switched", cfg.Switched)
	writeField(h, "nagle", cfg.Nagle)
	writeField(h, "cross-kbps", cfg.CrossTrafficKBps)
	writeField(h, "guarantee", cfg.GuaranteeProgram)
	writeField(h, "faults", cfg.FaultScript)
	writeField(h, "degrade", cfg.Degrade)
	writeField(h, "heartbeat-misses", 0)
	// Versioned extension: the topology field is hashed only when set, so
	// every pre-topology config — and every cache entry written for one —
	// keeps its exact key. Spec() is canonical (sorted, collapsed host
	// ranges; defaults omitted), so equivalent topologies hash equal.
	// The field name carries its own version: per-pair lookahead changed
	// the multi-segment event schedule, so "topology-v2" misses every
	// entry the old engine produced while leaving single-kernel keys —
	// the vast majority of any warm cache — untouched.
	if cfg.Topology != nil {
		writeField(h, "topology-v2", cfg.Topology.Spec())
	}
	return hex.EncodeToString(h.Sum(nil))
}

func writeField(w io.Writer, name string, v any) {
	fmt.Fprintf(w, "%s=%v\n", name, v)
}

// writeCost hashes a cost-model override; map iteration order is
// neutralized by sorting the rate keys.
func writeCost(w io.Writer, c *fx.CostModel) {
	if c == nil {
		writeField(w, "cost", "calibrated")
		return
	}
	writeField(w, "cost.default", c.DefaultRate)
	writeField(w, "cost.desched", fmt.Sprintf("%g/%d", c.DeschedProb, int64(c.DeschedMean)))
	writeField(w, "cost.jitter", c.JitterFrac)
	keys := make([]string, 0, len(c.Rates))
	for k := range c.Rates {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		writeField(w, "cost.rate."+k, c.Rates[k])
	}
}
