package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"fxnet/internal/ethernet"
	"fxnet/internal/faults"
	"fxnet/internal/kernels"
	"fxnet/internal/pvm"
	"fxnet/internal/qos"
	"fxnet/internal/sim"
	"fxnet/internal/trace"
)

// traceBytes runs cfg and returns the binary encoding of its trace.
func traceBytes(t *testing.T, cfg RunConfig) []byte {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run(%s): %v", cfg.Program, err)
	}
	var buf bytes.Buffer
	if err := res.Trace.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// dataEnd is the time of the last TCP data packet — the end of actual
// program activity, unlike Elapsed which includes daemon timer drain.
func dataEnd(t *testing.T, tr *trace.Trace) sim.Time {
	t.Helper()
	data := tr.Filter(func(p trace.Packet) bool {
		return p.Proto == ethernet.ProtoTCP && p.Flags&ethernet.FlagData != 0
	})
	if data.Len() == 0 {
		t.Fatal("trace has no data packets")
	}
	return data.At(data.Len() - 1).Time
}

// crashSilence reports the first frame a crashed host started between its
// crash mark and its next restart mark (or the end of the run): a frame
// starts its transmission time before its capture, at the bit rate in
// effect then. The check is exact on a shared segment, where a capture is
// the end of the one wire the frame crosses; a switch's SPAN capture
// comes after a queue of unknown length, so a switched run passes.
func crashSilence(res *Result) error {
	if res.Config.Switched {
		return nil
	}
	type window struct{ from, to sim.Time }
	var down [][]window
	rate := res.Config.BitRate
	if rate == 0 {
		rate = ethernet.DefaultBitRate
	}
	type rateAt struct {
		at  sim.Time
		bps float64
	}
	rates := []rateAt{{0, rate}}
	for _, m := range res.Trace.Marks {
		s, err := faults.Parse(m.Label)
		if err != nil {
			return fmt.Errorf("mark %q: %v", m.Label, err)
		}
		f := s.Faults[0]
		h, _ := hostIndex(f.Host, res.Config.EffectiveP())
		for len(down) <= h {
			down = append(down, nil)
		}
		open := len(down[h]) > 0 && down[h][len(down[h])-1].to == math.MaxInt64
		switch {
		case f.Kind == faults.HostCrash && !open:
			down[h] = append(down[h], window{m.Time, math.MaxInt64})
		case f.Kind == faults.HostRestart && open:
			down[h][len(down[h])-1].to = m.Time
		case f.Kind == faults.BitRateDegrade:
			rates = append(rates, rateAt{m.Time, f.Rate})
		}
	}
	for _, pk := range res.Trace.Packets {
		if int(pk.Src) >= len(down) {
			continue
		}
		bps := rates[0].bps
		for _, r := range rates {
			if r.at <= pk.Time {
				bps = r.bps
			}
		}
		wire := max(int(pk.Size), ethernet.MinWireBytes) + ethernet.PreambleBytes
		start := pk.Time - sim.Time(sim.DurationOf(float64(wire*8)/bps))
		for _, w := range down[pk.Src] {
			if start >= w.from && start < w.to {
				return fmt.Errorf("host %d is down from %v to %v, but a %d-byte frame %d→%d (port %d→%d) starts at %v",
					pk.Src, w.from, w.to, pk.Size, pk.Src, pk.Dst, pk.SrcPort, pk.DstPort, start)
			}
		}
	}
	return nil
}

// packets returns a trace's packets encoded alone: marks and metadata
// say a fault was scheduled whether or not it changed the traffic.
func packets(t *testing.T, res *Result) []byte {
	t.Helper()
	tr := *res.Trace
	tr.Meta, tr.Marks = map[string]string{}, nil
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Every kind faults.Parse accepts runs through core.Run: it replays
// byte-identically, it changes the traffic — a kind that undoes another
// (linkup, segup, heal, restart) changes it relative to the run without
// the undo — and a crashed host starts no frame until it restarts.
func TestEveryFaultKindRuns(t *testing.T) {
	base := RunConfig{Program: "sor", Seed: 11, Params: kernels.Params{N: 32, Iters: 8}}
	fq := probeEnd(t, base) / 4
	at := func(n sim.Duration, event string) string { return fmt.Sprintf("%v:%s", time.Duration(n*fq), event) }
	cases := []struct {
		kind     faults.Kind
		switched bool
		prior    string // the script this kind's event follows
		event    string
	}{
		{faults.LinkDown, false, "", at(1, "linkdown host2")},
		{faults.LinkUp, false, at(1, "linkdown host2"), at(2, "linkup host2")},
		{faults.SegmentDown, false, "", at(1, "segdown")},
		{faults.SegmentUp, false, at(1, "segdown"), at(2, "segup")},
		{faults.NetPartition, false, "", at(1, "partition host0+host1|host2+host3")},
		{faults.Heal, false, at(1, "partition host0+host1|host2+host3"), at(2, "heal")},
		{faults.HostCrash, false, "", at(1, "crash host2")},
		{faults.HostRestart, false, at(1, "crash host2"), at(2, "restart host2")},
		{faults.BitRateDegrade, false, "", at(1, "bitrate 2e6")},
		{faults.FrameDuplicate, false, "", at(1, "duplicate 0.2")},
		{faults.FrameReorder, false, "", at(1, "reorder 0.2")},
		{faults.ComputeStall, false, "", at(1, "stall host1 1s")},
		{faults.HostCrash, true, "", at(1, "crash host2")},
		{faults.HostRestart, true, at(1, "crash host2"), at(2, "restart host2")},
	}
	seen := map[faults.Kind]bool{}
	for _, tc := range cases {
		name, script := tc.kind.String(), tc.event
		if tc.switched {
			name += "/switched"
		}
		if tc.prior != "" {
			script = tc.prior + "," + tc.event
		}
		if got := faults.MustParse(script).Faults; got[len(got)-1].Kind != tc.kind {
			t.Fatalf("%s: script %q does not end in its kind", name, script)
		}
		seen[tc.kind] = true
		cfg := base
		cfg.Switched, cfg.FaultScript = tc.switched, script
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var buf bytes.Buffer
		if err := res.Trace.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), traceBytes(t, cfg)) {
			t.Errorf("%s: %q does not replay byte-identically", name, script)
		}
		cfg.FaultScript = tc.prior
		prior, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if bytes.Equal(packets(t, res), packets(t, prior)) {
			t.Errorf("%s: %q leaves the traffic of %q unchanged", name, script, tc.prior)
		}
		if err := crashSilence(res); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	for k := faults.LinkDown; k <= faults.ComputeStall; k++ {
		if !seen[k] {
			t.Errorf("fault kind %s never ran", k)
		}
	}
}

// probeEnd measures the fault-free program length so fault offsets can
// be placed mid-run regardless of the test's problem size.
func probeEnd(t *testing.T, cfg RunConfig) sim.Duration {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sim.Duration(dataEnd(t, res.Trace))
}

// Satellite: identical (program, P, seed, FaultScript) must replay
// byte-identically, across fault types and across two kernels.
func TestFaultRunsDeterministic(t *testing.T) {
	for _, program := range []string{"sor", "2dfft"} {
		base := RunConfig{
			Program: program,
			Seed:    11,
			Params:  kernels.Params{N: 32, Iters: 8},
		}
		third := probeEnd(t, base) / 3
		schedules := map[string]*faults.Schedule{
			"linkflap": {Faults: []faults.Fault{
				{At: third, Kind: faults.LinkDown, Host: "host2"},
				{At: 2 * third, Kind: faults.LinkUp, Host: "host2"},
			}},
			"crash": {Faults: []faults.Fault{
				{At: third, Kind: faults.HostCrash, Host: "host2"},
			}},
			"partition": {Faults: []faults.Fault{
				{At: third, Kind: faults.NetPartition,
					Groups: [][]string{{"host0", "host1"}, {"host2", "host3"}}},
				{At: 2 * third, Kind: faults.Heal},
			}},
		}
		for name, sched := range schedules {
			cfg := base
			cfg.FaultScript = sched.String()
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := crashSilence(res); err != nil {
				t.Errorf("%s/%s: %v", program, name, err)
			}
			a := traceBytes(t, cfg)
			b := traceBytes(t, cfg)
			if !bytes.Equal(a, b) {
				t.Errorf("%s/%s: identical seed+script produced different traces (%d vs %d bytes)",
					program, name, len(a), len(b))
			}
			if bytes.Equal(a, traceBytes(t, base)) {
				t.Errorf("%s/%s: fault schedule left the trace untouched (fired after completion?)",
					program, name)
			}
		}
	}
}

// Acceptance: a scripted HostCrash mid-run must never deadlock or panic
// any of the five kernels — survivors return a RunError naming the phase
// that failed.
func TestHostCrashNeverDeadlocks(t *testing.T) {
	params := map[string]kernels.Params{
		"sor":    {N: 32, Iters: 8},
		"2dfft":  {N: 32, Iters: 8},
		"t2dfft": {N: 32, Iters: 8},
		"seq":    {N: 32, Iters: 2},
		"hist":   {N: 64, Iters: 8},
	}
	for _, program := range kernels.Names() {
		base := RunConfig{Program: program, Seed: 5, Params: params[program]}
		cfg := base
		cfg.FaultScript = (&faults.Schedule{Faults: []faults.Fault{
			{At: probeEnd(t, base) / 2, Kind: faults.HostCrash, Host: "host2"},
		}}).String()
		res, err := Run(cfg)
		if err != nil {
			t.Errorf("%s: Run failed outright: %v", program, err)
			continue
		}
		if err := crashSilence(res); err != nil {
			t.Errorf("%s: %v", program, err)
		}
		if res.RunErr == nil {
			t.Errorf("%s: mid-run crash produced no RunError", program)
			continue
		}
		if res.RunErr.Phase == "" {
			t.Errorf("%s: RunError has no phase: %v", program, res.RunErr)
		}
		// When a survivor noticed the death (Rank >= 0) the cause must be
		// the failure detector's verdict. Pipeline kernels may instead
		// report the synthesized worker-killed error (Rank -1) when the
		// survivors were already done with the dead rank.
		if res.RunErr.Rank >= 0 && !errors.Is(res.RunErr.Err, pvm.ErrPeerDead) {
			t.Errorf("%s: RunError cause = %v, want ErrPeerDead", program, res.RunErr.Err)
		}
	}
}

// Acceptance: with Degrade the team re-forms on the survivors, the QoS
// negotiation picks the new P, and the post-fault burst period matches
// the §7.3 prediction tbi(P−1) within 10%.
func TestDegradeReformsAndMatchesQoSPrediction(t *testing.T) {
	params := kernels.Params{N: 512, Iters: 12}
	cfg := RunConfig{
		Program:        "sor",
		Seed:           31,
		Params:         params,
		DisableDesched: true,
		Degrade:        true,
		FaultScript:    "4s:crash host2",
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.RunErr != nil {
		t.Fatalf("degraded run aborted: %v", res.RunErr)
	}
	if err := crashSilence(res); err != nil {
		t.Error(err)
	}
	if res.Team.Generation() != 1 {
		t.Fatalf("team generation = %d, want 1", res.Team.Generation())
	}

	// The re-formed size must be exactly what the negotiation returns
	// for the three survivors.
	spec, _ := kernels.Lookup("sor")
	offer, err := qos.NewNetwork(qos.EffectiveCapacityBps).Negotiate(spec.QoS(params), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Workers) != offer.P {
		t.Fatalf("re-formed P = %d, QoS negotiation says %d", len(res.Workers), offer.P)
	}

	// Post-fault burst period vs tbi(newP). The crash mark is at 4s;
	// detection takes ~3 keepalives, so measure well after the re-formed
	// team has settled into its steady rhythm.
	if len(res.Trace.Marks) == 0 {
		t.Fatal("no fault marks in trace")
	}
	settled := res.Trace.Marks[0].Time.Add(6 * sim.Second)
	// A burst starts at the first data packet after an idle gap of at
	// least 500 ms.
	var starts []sim.Time
	last := sim.Time(-1)
	for _, p := range res.Trace.Packets {
		if p.Time < settled || p.Proto != ethernet.ProtoTCP || p.Flags&ethernet.FlagData == 0 {
			continue
		}
		if last < 0 || p.Time.Sub(last) >= 500*sim.Millisecond {
			starts = append(starts, p.Time)
		}
		last = p.Time
	}
	if len(starts) < 4 {
		t.Fatalf("too few post-fault bursts to measure: %d", len(starts))
	}
	period := starts[len(starts)-1].Sub(starts[0]).Seconds() / float64(len(starts)-1)
	predicted := offer.BurstInterval
	if dev := math.Abs(period-predicted) / predicted; dev > 0.10 {
		t.Errorf("post-fault burst period %.3fs vs predicted tbi(%d)=%.3fs (%.0f%% off)",
			period, offer.P, predicted, dev*100)
	}
	if res.Trace.Meta["finalP"] != fmt.Sprint(offer.P) {
		t.Errorf("finalP meta = %q, want %d", res.Trace.Meta["finalP"], offer.P)
	}
}

// A fault kind with no hook on the chosen topology must be rejected
// up front, not silently skipped.
func TestSwitchedTopologyRejectsLinkFaults(t *testing.T) {
	cfg := RunConfig{
		Program:     "sor",
		Seed:        1,
		Params:      kernels.Params{N: 32, Iters: 5},
		Switched:    true,
		FaultScript: "1s:linkdown host2",
	}
	if _, err := Run(cfg); err == nil {
		t.Fatal("switched run accepted a shared-segment link fault")
	}
}

func TestBadFaultScriptRejected(t *testing.T) {
	cfg := RunConfig{
		Program:     "sor",
		Seed:        1,
		FaultScript: "1s:frobnicate host2",
	}
	if _, err := Run(cfg); err == nil {
		t.Fatal("malformed fault script accepted")
	}
}

func TestComputeStallAnnotatesAndCompletes(t *testing.T) {
	base := RunConfig{Program: "sor", Seed: 3, Params: kernels.Params{N: 32, Iters: 8}}
	baseEnd := probeEnd(t, base)
	cfg := base
	cfg.FaultScript = (&faults.Schedule{Faults: []faults.Fault{
		{At: baseEnd / 2, Kind: faults.ComputeStall,
			Host: "host1", Dur: 2 * sim.Second},
	}}).String()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.RunErr != nil {
		t.Fatalf("stall aborted the run: %v", res.RunErr)
	}
	if err := crashSilence(res); err != nil {
		t.Error(err)
	}
	if len(res.Trace.Marks) != 1 {
		t.Fatalf("marks = %v, want the stall annotation", res.Trace.Marks)
	}
	// The stall stretches the program by roughly its length.
	if gain := dataEnd(t, res.Trace).Sub(sim.Time(baseEnd)); gain < sim.Duration(sim.Second) {
		t.Errorf("stall added only %v", gain)
	}
}
