package analysis_test

import (
	"reflect"
	"testing"

	"fxnet/internal/analysis"
	"fxnet/internal/core"
)

// TestFoldMatchesReferenceOnQuickPrograms holds the fold to the naive
// whole-trace definitions (reference_test.go) on the simulator's own
// traces — the six -quick programs at seed 42, the regime the golden
// digests pin — replayed and delivered in chunks of 1, 7 and 16384
// packets, and ties the per-quantity functions to the fold on the same
// traces.
func TestFoldMatchesReferenceOnQuickPrograms(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every -quick program")
	}
	for _, name := range core.ProgramNames() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			res, err := core.Run(core.QuickConfig(name, 0, 42))
			if err != nil {
				t.Fatal(err)
			}
			want := analysis.ReferenceReport(res.Trace, name, res.RepConn)
			replay := analysis.CharacterizeTrace(res.Trace, name, res.RepConn)
			analysis.CheckAgainstReference(t, replay, want, 0)
			for _, chunkLen := range []int{1, 7, 16384} {
				sc := analysis.NewStreamCharacterizer(name, res.RepConn)
				analysis.FoldInChunks(sc, res.Trace, chunkLen)
				if got := sc.Report(); !reflect.DeepEqual(got, replay) {
					t.Errorf("chunk length %d: Report differs from the replay's", chunkLen)
					analysis.CheckAgainstReference(t, got, want, 0)
				}
			}
			analysis.CheckPrimitivesMatchReport(t, res.Trace, res.RepConn)
		})
	}
}
