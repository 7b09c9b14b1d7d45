package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"time"

	"fxnet/internal/core"
)

// expected.json pins each simulation workload's outputs at full scale
// for the default seed (42) and a held-out seed (7): the digest of the
// encoded trace (or of the marshalled report, for the stream workload)
// and the exact counts. On any other seed or scale a repetition is
// checked against the run's first repetition instead.
//
//go:embed expected.json
var expectedJSON []byte

var pinnedSeeds = []int64{42, 7}

// pinnedOutputs returns the pinned outputs for (workload, seed) at full
// scale, or nil when none are pinned.
func pinnedOutputs(workload, scale string, seed int64) *outputs {
	if scale != scaleFull {
		return nil
	}
	var all map[string]map[string]outputs
	if err := json.Unmarshal(expectedJSON, &all); err != nil {
		panic("bench: expected.json: " + err.Error())
	}
	if o, ok := all[workload][strconv.FormatInt(seed, 10)]; ok {
		return &o
	}
	return nil
}

// runPin recomputes the pins — one repetition per simulation workload
// and pinned seed — and prints the new expected.json, to replace the
// file with after a change that is meant to move the model.
func runPin(man *manifest) error {
	all := map[string]map[string]outputs{}
	for _, w := range man.Workloads {
		if w.Name == "serve_mix" {
			continue
		}
		all[w.Name] = map[string]outputs{}
		for _, seed := range pinnedSeeds {
			cfg, stream, err := simConfig(w.Name, scaleFull, seed)
			if err != nil {
				return err
			}
			t0 := time.Now()
			r, err := pipeline(cfg, stream, core.RunOpts{}, nil, 0)
			if err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "pinned %s seed %d in %.1fs\n", w.Name, seed, seconds(t0))
			all[w.Name][strconv.FormatInt(seed, 10)] = r.out
		}
	}
	b, err := json.MarshalIndent(all, "", " ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
