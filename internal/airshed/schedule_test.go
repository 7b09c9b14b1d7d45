package airshed_test

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"fxnet/internal/airshed"
	"fxnet/internal/core"
	"fxnet/internal/farm"
	"fxnet/internal/fx"
)

// TestScheduleInvariance: Run's transport and chemistry arithmetic runs
// on goroutines beside each rank's virtual charge, so the host may
// schedule the P ranks' work in any order on any number of cores. None of
// that may reach an output: under GOMAXPROCS 1, 2 and 8 the encoded
// trace, the stream report's farm.MarshalReport bytes and every rank's
// final concentrations must be the same, the last bit-equal to the
// legacy sequential reference.
func TestScheduleInvariance(t *testing.T) {
	cfg := core.QuickConfig(core.Airshed, 0, 5)
	p := cfg.AirshedParams
	const P = 4
	cost := fx.DefaultCostModel()
	cost.Rates = airshed.Rates
	want := airshed.LegacySequential(p)

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var firstTrace, firstReport []byte
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)

		res, err := core.RunWithOpts(cfg, core.RunOpts{})
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		var tr bytes.Buffer
		if err := res.Trace.WriteBinary(&tr); err != nil {
			t.Fatal(err)
		}
		_, rep, err := core.RunStreamWithOpts(cfg, core.RunOpts{})
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d stream: %v", procs, err)
		}
		report, err := farm.MarshalReport(rep)
		if err != nil {
			t.Fatal(err)
		}
		if firstTrace == nil {
			firstTrace, firstReport = tr.Bytes(), report
		} else {
			if !bytes.Equal(tr.Bytes(), firstTrace) {
				t.Errorf("GOMAXPROCS=%d: encoded trace differs from GOMAXPROCS=1", procs)
			}
			if !bytes.Equal(report, firstReport) {
				t.Errorf("GOMAXPROCS=%d: report bytes differ from GOMAXPROCS=1", procs)
			}
		}

		got, _ := airshed.RunDistributedCost(t, P, p, cost)
		for r := range P {
			llo, lhi := fx.BlockRange(p.Layers, P, r)
			airshed.SameBits(t, fmt.Sprintf("GOMAXPROCS=%d rank %d", procs, r), got[r], want[llo:lhi])
		}
	}
}
