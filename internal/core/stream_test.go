package core

import (
	"reflect"
	"testing"
)

// TestStreamMatchesTraceCharacterization is the one-characterizer
// contract over all six -quick programs and one bridged topology: the
// report a stream run folds live and the report Characterize replays out
// of the retained trace of the same configuration are one value — every
// series, spectrum, bandwidth and summary, SD included — because one
// fold computes both and the collector delivers the packets in the
// order the trace records them.
func TestStreamMatchesTraceCharacterization(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every -quick program twice")
	}
	rows := map[string]RunConfig{}
	for _, name := range ProgramNames() {
		rows[name] = QuickConfig(name, 0, 42) // fxrepro -quick, the scale the golden digests pin
	}
	bridged := QuickConfig("2dfft", 0, 42)
	var err error
	if bridged.Topology, err = ParseTopology("lan0:0-1,lan1:2-3"); err != nil {
		t.Fatal(err)
	}
	rows["2dfft-bridged"] = bridged

	for name, cfg := range rows {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := Characterize(res)
			if want.AggSize.N == 0 || want.AggSize.SD == 0 {
				t.Fatalf("degenerate report (N %d, SD %v): the run does not exercise the fold",
					want.AggSize.N, want.AggSize.SD)
			}

			sres, got, err := RunStream(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if n := sres.Trace.Len(); n != 0 {
				t.Errorf("stream run retained %d packets", n)
			}
			if sres.Trace.Meta["program"] != cfg.Program {
				t.Errorf("stream trace metadata missing program (meta=%v)", sres.Trace.Meta)
			}
			if sres.Elapsed != res.Elapsed {
				t.Errorf("stream run elapsed %v, trace run %v", sres.Elapsed, res.Elapsed)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("RunStream report differs from Characterize(Run):\n stream %+v %+v\n replay %+v %+v",
					got.AggSize, got.AggInterarrival, want.AggSize, want.AggInterarrival)
			}
		})
	}
}
