package analysis_test

import (
	"math"
	"testing"

	"fxnet/internal/core"
)

// TestCorrelationGolden pins Report.Correlation of the -quick AIRSHED run
// (seed 42, 12 connections) to the last bit. The value reaches
// farm.MarshalReport and the model catalog, so a change that moves it —
// a reordered sum in the pairwise kernel, a different bin origin — moves
// cached results and must be deliberate.
func TestCorrelationGolden(t *testing.T) {
	const want = 0x3fed097f1a6d156b // 0.90740924035405379
	res, err := core.Run(core.QuickConfig(core.Airshed, 0, 42))
	if err != nil {
		t.Fatal(err)
	}
	if got := core.Characterize(res).Correlation; math.Float64bits(got) != want {
		t.Errorf("batch Correlation = %.17g (%#x), want %#x", got, math.Float64bits(got), uint64(want))
	}
}
