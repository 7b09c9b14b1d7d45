package core

import (
	"math"
	"strings"
	"testing"

	"fxnet/internal/airshed"
	"fxnet/internal/ethernet"
	"fxnet/internal/kernels"
	"fxnet/internal/sim"
	"fxnet/internal/trace"
)

// smallRun runs a program with reduced size for fast tests.
func smallRun(t *testing.T, program string) *Result {
	t.Helper()
	cfg := RunConfig{Program: program, Seed: 1}
	if program == Airshed {
		cfg.AirshedParams = airshed.Params{Layers: 4, Species: 5, Grid: 64, Steps: 2, Hours: 2, Band: 4}
	} else {
		cfg.Params = kernels.Params{N: 32, Iters: 5}
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", program, err)
	}
	return res
}

func TestRunAllProgramsSmall(t *testing.T) {
	for _, name := range ProgramNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			res := smallRun(t, name)
			if res.Trace.Len() == 0 {
				t.Fatal("no packets captured")
			}
			if res.Elapsed <= 0 {
				t.Fatal("no virtual time elapsed")
			}
			if res.Trace.Meta["program"] != name {
				t.Errorf("meta = %v", res.Trace.Meta)
			}
			// Host table includes the P workers plus the monitor.
			if len(res.Trace.Hosts) != 5 {
				t.Errorf("hosts = %v", res.Trace.Hosts)
			}
			if res.Trace.Hosts[4] != "monitor" {
				t.Errorf("last host = %q", res.Trace.Hosts[4])
			}
		})
	}
}

func TestUnknownProgram(t *testing.T) {
	if _, err := Run(RunConfig{Program: "nope"}); err == nil {
		t.Error("unknown program accepted")
	}
}

// Malformed AIRSHED dimensions are refused by Validate, not left to panic
// inside a proc: the first two rows used to die in core.Run with
// "linalg: invalid bandwidth" and "makeslice: len out of range".
func TestAirshedParamsValidated(t *testing.T) {
	small := airshed.Params{Layers: 4, Species: 2, Grid: 8, Steps: 1, Hours: 1, Band: 2}
	for _, tc := range []struct {
		name   string
		mutate func(*airshed.Params)
		refuse string
	}{
		{"band == grid", func(p *airshed.Params) { p.Band = 8 }, "Band 8 outside [0, Grid=8)"},
		{"negative species", func(p *airshed.Params) { p.Species = -1 }, "must be at least 1"},
		{"zero value means the paper's", func(p *airshed.Params) { *p = airshed.Params{} }, ""},
		{"fewer layers and points than ranks", func(p *airshed.Params) { p.Layers, p.Grid = 2, 3 }, ""},
	} {
		cfg := RunConfig{Program: Airshed, Seed: 1, AirshedParams: small}
		tc.mutate(&cfg.AirshedParams)
		err := Validate(cfg)
		if tc.refuse == "" {
			if err != nil {
				t.Errorf("%s: refused: %v", tc.name, err)
			} else if cfg.AirshedParams != (airshed.Params{}) { // the paper's 100 hours are not a unit test
				if _, err := Run(cfg); err != nil {
					t.Errorf("%s: %v", tc.name, err)
				}
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.refuse) {
			t.Errorf("%s: Validate = %v, want a refusal saying %q", tc.name, err, tc.refuse)
		}
		if _, runErr := Run(cfg); runErr == nil || err == nil || runErr.Error() != err.Error() {
			t.Errorf("%s: Run error %v, Validate error %v", tc.name, runErr, err)
		}
	}
	// Another program ignores the field, malformed or not.
	if err := Validate(RunConfig{Program: "sor", AirshedParams: airshed.Params{Species: -1}}); err != nil {
		t.Errorf("sor with unused AirshedParams refused: %v", err)
	}
}

// oneSegment is a one-segment topology holding the default four hosts
// at the given bit rate.
func oneSegment(bitRate float64) *Topology {
	return &Topology{Segments: []TopoSegment{{Name: "lan0", Hosts: []int{0, 1, 2, 3}, BitRate: bitRate}}}
}

// A fault script naming a host the run does not have, or a wire fault on
// a switched fabric, is refused by Validate with the message faults.Apply
// gave once the fabric was built — so a front end never accepts (and
// fxnetd never journals) a job that can only fail. So is a negative size:
// P < 0 and N < 0 used to panic in makeslice, Iters < 0 to run nothing;
// and so is a rate that is negative, NaN or infinite.
func TestFaultScriptValidated(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cfg    RunConfig
		refuse string
	}{
		{"unknown name", RunConfig{FaultScript: "1s:linkdown nosuchhost"}, `faults: unknown host "nosuchhost"`},
		{"index past P", RunConfig{P: 4, FaultScript: "1s:crash host9"}, `faults: unknown host "host9"`},
		{"index past the default P", RunConfig{FaultScript: "1s:stall 4 1s"}, `faults: unknown host "4"`},
		{"partition group", RunConfig{FaultScript: "1s:partition alpha0+alpha1|alpha2+alpha7"}, `faults: unknown host "alpha7"`},
		{"padded index", RunConfig{FaultScript: "1s:crash 03"}, `faults: unknown host "03"`},
		{"link fault on a switch", RunConfig{Switched: true, FaultScript: "1s:linkdown host1"}, "faults: linkdown not supported by this topology"},
		{"bit rate on a switch", RunConfig{Switched: true, FaultScript: "1s:bitrate 5e6"}, "faults: bitrate not supported by this topology"},
		{"restart", RunConfig{FaultScript: "1s:restart host4"}, `faults: unknown host "host4"`},
		{"three spellings", RunConfig{FaultScript: "1s:linkdown alpha3,2s:linkup host3,3s:stall 3 10ms"}, ""},
		{"host faults on a switch", RunConfig{Switched: true, FaultScript: "1s:stall host1 10ms"}, ""},
		{"P = 8 has a host7", RunConfig{P: 8, FaultScript: "1s:partition 0+1+2+3|4+5+6+7,2s:heal"}, ""},
		{"negative P", RunConfig{P: -1}, "core: P -1 is negative (0 selects the paper's default)"},
		{"negative N", RunConfig{Params: kernels.Params{N: -5, Iters: 2}}, "core: N -5 is negative (0 selects the paper's default)"},
		{"negative Iters", RunConfig{Params: kernels.Params{N: 16, Iters: -2}}, "core: Iters -2 is negative (0 selects the paper's default)"},
		// A rate is refused by name unless finite and non-negative: BitRate
		// -5 used to run at the 10 Mb/s default, and NaN passed a "< 0" check.
		{"negative BitRate", RunConfig{BitRate: -5}, "core: BitRate -5 is not a finite non-negative rate"},
		{"NaN BitRate", RunConfig{BitRate: math.NaN()}, "core: BitRate NaN is not a finite non-negative rate"},
		{"+Inf BitRate", RunConfig{BitRate: math.Inf(1)}, "core: BitRate +Inf is not a finite non-negative rate"},
		{"-Inf BitRate", RunConfig{BitRate: math.Inf(-1)}, "core: BitRate -Inf is not a finite non-negative rate"},
		{"negative CrossTrafficKBps", RunConfig{CrossTrafficKBps: -1}, "core: CrossTrafficKBps -1 is not a finite non-negative rate"},
		{"NaN CrossTrafficKBps", RunConfig{CrossTrafficKBps: math.NaN()}, "core: CrossTrafficKBps NaN is not a finite non-negative rate"},
		{"+Inf CrossTrafficKBps", RunConfig{CrossTrafficKBps: math.Inf(1)}, "core: CrossTrafficKBps +Inf is not a finite non-negative rate"},
		{"negative segment BitRate", RunConfig{Topology: oneSegment(-1)}, `core: segment "lan0" bit rate -1 is not a finite non-negative rate`},
		{"NaN segment BitRate", RunConfig{Topology: oneSegment(math.NaN())}, `core: segment "lan0" bit rate NaN is not a finite non-negative rate`},
		{"+Inf segment BitRate", RunConfig{Topology: oneSegment(math.Inf(1))}, `core: segment "lan0" bit rate +Inf is not a finite non-negative rate`},
		{"finite rates", RunConfig{BitRate: 20e6, Topology: oneSegment(40e6)}, ""},
	} {
		cfg := tc.cfg
		cfg.Program, cfg.Seed = "sor", 1
		if cfg.Params == (kernels.Params{}) {
			cfg.Params = kernels.Params{N: 16, Iters: 2}
		}
		err := Validate(cfg)
		_, runErr := Run(cfg)
		if tc.refuse == "" {
			if err != nil || runErr != nil {
				t.Errorf("%s: Validate = %v, Run = %v, want both to accept", tc.name, err, runErr)
			}
			continue
		}
		if err == nil || err.Error() != tc.refuse {
			t.Errorf("%s: Validate = %v, want %q", tc.name, err, tc.refuse)
		}
		if runErr == nil || runErr.Error() != tc.refuse {
			t.Errorf("%s: Run = %v, want %q", tc.name, runErr, tc.refuse)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	a := smallRun(t, "2dfft")
	b := smallRun(t, "2dfft")
	if a.Trace.Len() != b.Trace.Len() || a.Elapsed != b.Elapsed {
		t.Fatalf("nondeterministic: %d/%v vs %d/%v", a.Trace.Len(), a.Elapsed, b.Trace.Len(), b.Elapsed)
	}
	for i := range a.Trace.Len() {
		if a.Trace.At(i) != b.Trace.At(i) {
			t.Fatalf("trace diverges at packet %d", i)
		}
	}
}

func TestSeedChangesTrace(t *testing.T) {
	a := smallRun(t, "sor")
	cfg := RunConfig{Program: "sor", Seed: 2, Params: kernels.Params{N: 32, Iters: 5}}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Elapsed virtual time is quantized by the final daemon keepalive
	// tick, so compare the last packet timestamps instead.
	lastA := a.Trace.At(a.Trace.Len() - 1).Time
	lastB := b.Trace.At(b.Trace.Len() - 1).Time
	if lastA == lastB {
		t.Error("different seeds produced identical traces (jitter not applied?)")
	}
}

func TestCalibratedCost(t *testing.T) {
	cost, err := CalibratedCost("2dfft")
	if err != nil {
		t.Fatal(err)
	}
	if cost.Rates["fft.flop"] <= 0 {
		t.Errorf("missing calibrated rate: %+v", cost.Rates)
	}
	if _, err := CalibratedCost("nope"); err == nil {
		t.Error("unknown program accepted")
	}
}

func TestCharacterizeReport(t *testing.T) {
	res := smallRun(t, "2dfft")
	rep := Characterize(res)
	if rep.AggSize.N != res.Trace.Len() {
		t.Errorf("AggSize.N = %d", rep.AggSize.N)
	}
	if rep.AggSize.Min < 51 || rep.AggSize.Max > 1518 {
		t.Errorf("size range [%v, %v]", rep.AggSize.Min, rep.AggSize.Max)
	}
	if rep.AggKBps <= 0 {
		t.Error("no aggregate bandwidth")
	}
	if len(rep.AggSeries) == 0 || rep.SeriesDT != 0.01 {
		t.Errorf("series len %d dt %v", len(rep.AggSeries), rep.SeriesDT)
	}
	if rep.AggSpectrum == nil || len(rep.AggSpectrum.Power) == 0 {
		t.Error("no spectrum")
	}
	// 2DFFT has a representative connection (1 → 0).
	if rep.ConnSize.N == 0 || rep.ConnKBps <= 0 {
		t.Error("no connection characterization")
	}
	if rep.ConnSize.N >= rep.AggSize.N {
		t.Error("connection has as many packets as aggregate")
	}
}

func TestCharacterizeNoRepConn(t *testing.T) {
	res := smallRun(t, "seq")
	rep := Characterize(res)
	if rep.ConnSize.N != 0 {
		t.Error("SEQ should have no representative connection")
	}
	if rep.AggSize.N == 0 {
		t.Error("no aggregate stats")
	}
}

func TestRepresentativeConnections(t *testing.T) {
	for _, name := range []string{"sor", "2dfft", "t2dfft"} {
		res := smallRun(t, name)
		if res.RepConn[0] < 0 {
			t.Errorf("%s has no representative connection", name)
		}
		conn := res.Trace.Connection(res.RepConn[0], res.RepConn[1])
		if conn.Len() == 0 {
			t.Errorf("%s representative connection %v is empty", name, res.RepConn)
		}
	}
	for _, name := range []string{"seq", "hist"} {
		res := smallRun(t, name)
		if res.RepConn[0] >= 0 {
			t.Errorf("%s unexpectedly has representative connection", name)
		}
	}
}

func TestPacketSizesWithinEthernetBounds(t *testing.T) {
	for _, name := range ProgramNames() {
		res := smallRun(t, name)
		for _, p := range res.Trace.Packets {
			if p.Size < 51 || p.Size > 1518 {
				t.Fatalf("%s: packet size %d out of range", name, p.Size)
			}
		}
	}
}

func TestDaemonTrafficPresent(t *testing.T) {
	// With a short keepalive, UDP daemon traffic shows up in the trace.
	cfg := RunConfig{
		Program:           "sor",
		Seed:              1,
		Params:            kernels.Params{N: 32, Iters: 200},
		KeepaliveInterval: 100 * sim.Millisecond,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	udp := res.Trace.Filter(func(p trace.Packet) bool { return p.Proto == ethernet.ProtoUDP })
	if udp.Len() == 0 {
		t.Error("no PVM daemon UDP traffic captured")
	}
}

func TestSwitchedMedium(t *testing.T) {
	cfg := RunConfig{Program: "2dfft", Seed: 1, Params: kernels.Params{N: 32, Iters: 5}, Switched: true}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace.Len() == 0 {
		t.Fatal("no packets on switched medium")
	}
	shared := smallRun(t, "2dfft")
	// The kernel is verified elsewhere; here the switched run must simply
	// carry the same payload volume (same program, same data).
	if got, want := res.Trace.TotalBytes(), shared.Trace.TotalBytes(); got < want*9/10 || got > want*11/10 {
		t.Errorf("switched bytes %d far from shared %d", got, want)
	}
}

func TestSwitchedRejectsLossInjection(t *testing.T) {
	if _, err := Run(RunConfig{Program: "sor", Switched: true, FrameLossProb: 0.1}); err == nil {
		t.Error("switched + loss accepted")
	}
}

// An out-of-range loss probability is an error from the run path's
// validation, not a panic in Segment.SetDropProb (or, negative, a
// silently loss-free run).
func TestFrameLossOutOfRange(t *testing.T) {
	for _, p := range []float64{1.5, 1, -0.1, math.NaN()} {
		if _, err := Run(RunConfig{Program: "sor", FrameLossProb: p}); err == nil || !strings.Contains(err.Error(), "FrameLossProb") {
			t.Errorf("FrameLossProb %g: err = %v, want a FrameLossProb range error", p, err)
		}
	}
}

func TestFrameLossRun(t *testing.T) {
	cfg := RunConfig{Program: "sor", Seed: 1, Params: kernels.Params{N: 32, Iters: 10}, FrameLossProb: 0.05}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SegStats.Corrupted == 0 {
		t.Error("no corrupted frames recorded")
	}
	// Run would have returned an error had the loss deadlocked the
	// program; reaching here means TCP recovered everything.
}

func TestNagleRun(t *testing.T) {
	off, err := Run(RunConfig{Program: "seq", Seed: 1, Params: kernels.Params{N: 16, Iters: 1}})
	if err != nil {
		t.Fatal(err)
	}
	on, err := Run(RunConfig{Program: "seq", Seed: 1, Params: kernels.Params{N: 16, Iters: 1}, Nagle: true})
	if err != nil {
		t.Fatal(err)
	}
	if on.Trace.Len() >= off.Trace.Len() {
		t.Errorf("Nagle did not reduce packets: %d vs %d", on.Trace.Len(), off.Trace.Len())
	}
}

func TestCrossTraffic(t *testing.T) {
	quiet, err := Run(RunConfig{Program: "sor", Seed: 1, Params: kernels.Params{N: 32, Iters: 5}})
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Run(RunConfig{
		Program: "sor", Seed: 1, Params: kernels.Params{N: 32, Iters: 5},
		CrossTrafficKBps: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Background UDP from the extra "video" host shows up.
	bg := loaded.Trace.Filter(func(p trace.Packet) bool {
		return p.Proto == ethernet.ProtoUDP && p.SrcPort == 4000
	})
	if bg.Len() == 0 {
		t.Fatal("no cross traffic captured")
	}
	if loaded.Trace.Len() <= quiet.Trace.Len() {
		t.Error("cross traffic did not add packets")
	}
	if got := loaded.Trace.Hosts[len(loaded.Trace.Hosts)-1]; got != "video" {
		t.Errorf("last host = %q", got)
	}
}

func TestGuaranteeRequiresSwitch(t *testing.T) {
	if _, err := Run(RunConfig{Program: "sor", GuaranteeProgram: true}); err == nil {
		t.Error("guarantee without switch accepted")
	}
}

func TestGuaranteeOnSwitchRuns(t *testing.T) {
	res, err := Run(RunConfig{
		Program: "sor", Seed: 1, Params: kernels.Params{N: 32, Iters: 5},
		Switched: true, GuaranteeProgram: true, CrossTrafficKBps: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace.Len() == 0 {
		t.Fatal("no traffic")
	}
}
