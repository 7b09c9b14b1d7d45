package core

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
	"time"

	"fxnet/internal/airshed"
	"fxnet/internal/ethernet"
	"fxnet/internal/fx"
	"fxnet/internal/kernels"
	"fxnet/internal/netstack"
	"fxnet/internal/pvm"
	"fxnet/internal/sim"
)

// goroutinesSettleTo waits for the goroutine count to fall back to want.
// The simulator's own processes are gone the moment Run returns; only the
// parallel engine's per-partition workers exit asynchronously, after
// their command channels close.
func goroutinesSettleTo(want int) int {
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	return runtime.NumGoroutine()
}

// goroutinesSettled reads the goroutine count once it has held still for
// 20 ms: the previous test's own runner goroutine finishes its exit after
// the next test has started, and a baseline read too early counts it.
func goroutinesSettled() int {
	n, held := runtime.NumGoroutine(), 0
	for deadline := time.Now().Add(2 * time.Second); held < 20 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			held++
		} else {
			n, held = m, 0
		}
	}
	return n
}

// rankWorkRunning reports whether any goroutine is still inside AIRSHED's
// numerics. fx.Worker.ComputeWith joins its work before it returns and
// when a kill unwinds the rank, so this is false the moment a run
// returns: unlike the goroutine count, it needs no settling.
func rankWorkRunning() bool {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return bytes.Contains(buf[:n], []byte("fxnet/internal/airshed."))
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestRunLeavesNoGoroutines: every run path returns with the goroutines
// it started — PVM accept daemons, killed and surviving workers, cross
// traffic, AIRSHED's off-thread rank numerics — released, on every
// fabric and in both modes.
func TestRunLeavesNoGoroutines(t *testing.T) {
	twoSeg, err := ParseTopology("lan0:0-1,lan1:2-3")
	if err != nil {
		t.Fatal(err)
	}
	small := kernels.Params{N: 32, Iters: 5}
	// One layer over four ranks: rank 0 alone has transport work, about
	// 3.3 s of virtual charge (35 backsolves of 32768 points) ending near
	// 143.4 s at seed 3, and milliseconds of host arithmetic. The crash
	// lands inside that charge while ranks 1–3 wait for rank 0's
	// transpose, so the team aborts at once and a work body the kill did
	// not join would still be running when the run returns.
	oneLayer := airshed.Params{Layers: 1, Species: 35, Grid: 32768, Steps: 1, Hours: 1, Band: 4}
	cases := []struct {
		name string
		cfg  RunConfig
		opts RunOpts
	}{
		{"shared", RunConfig{Program: "sor", Seed: 1, Params: small}, RunOpts{}},
		{"shared+crosstraffic", RunConfig{Program: "seq", Seed: 1, Params: kernels.Params{N: 32, Iters: 2}, CrossTrafficKBps: 200}, RunOpts{}},
		{"switched", RunConfig{Program: "2dfft", Seed: 1, Params: small, Switched: true}, RunOpts{}},
		{"topology/serial", RunConfig{Program: "2dfft", Seed: 7, P: 4, Params: small, Topology: twoSeg}, RunOpts{PDES: PDESSerial}},
		{"topology/parallel", RunConfig{Program: "2dfft", Seed: 7, P: 4, Params: small, Topology: twoSeg}, RunOpts{PDES: PDESParallel}},
		{"topology+loss/parallel", RunConfig{Program: "2dfft", Seed: 7, P: 4, Params: small, Topology: twoSeg, FrameLossProb: 0.02}, RunOpts{PDES: PDESParallel}},
		{"crash", RunConfig{Program: "sor", Seed: 5, Params: kernels.Params{N: 32, Iters: 8}, FaultScript: "20ms:crash host2"}, RunOpts{}},
		{"crash+degrade", RunConfig{Program: "sor", Seed: 31, Params: kernels.Params{N: 512, Iters: 12}, DisableDesched: true, Degrade: true, FaultScript: "4s:crash host2"}, RunOpts{}},
		{"airshed", QuickConfig(Airshed, 0, 1), RunOpts{}},
		{"airshed+crash/transport", RunConfig{Program: Airshed, Seed: 3, AirshedParams: oneLayer, FaultScript: "142s:crash host0"}, RunOpts{}},
	}
	for _, c := range cases {
		for _, stream := range []bool{false, true} {
			before := goroutinesSettled()
			var res *Result
			var err error
			if stream {
				res, _, err = RunStreamWithOpts(c.cfg, c.opts)
			} else {
				res, err = RunWithOpts(c.cfg, c.opts)
			}
			if err != nil {
				t.Fatalf("%s stream=%v: %v", c.name, stream, err)
			}
			if rankWorkRunning() {
				t.Errorf("%s stream=%v: AIRSHED work still running after the run returned", c.name, stream)
			}
			if aborted := c.cfg.FaultScript != "" && !c.cfg.Degrade; aborted != (res.RunErr != nil) {
				t.Errorf("%s stream=%v: RunErr = %v, want an abort: %v", c.name, stream, res.RunErr, aborted)
			}
			if after := goroutinesSettleTo(before); after != before {
				t.Errorf("%s stream=%v: %d goroutines after the run, %d before", c.name, stream, after, before)
			}
		}
	}
}

// TestDeadlockNamesParkedProcs: the deadlock error says who is stuck, in
// spawn order, and stays bounded on a large team.
func TestDeadlockNamesParkedProcs(t *testing.T) {
	stuck := func(p int) error {
		k := sim.New(1)
		defer k.Close()
		seg := ethernet.NewSegment(k, 0)
		hosts := make([]*netstack.Host, p)
		for i := range hosts {
			st := seg.Attach("h")
			hosts[i] = netstack.NewHost(k, st, st.Name(), netstack.DefaultConfig())
		}
		m := pvm.NewMachine(k, hosts, pvm.Config{})
		team := fx.Launch(m, p, fx.DefaultCostModel(), "stuck", func(w *fx.Worker) {
			if w.Rank != 1 {
				w.Recv(1, 99) // a receive nobody will satisfy
			}
		})
		_, _, err := finishTeam(team, "stuck", k.Run(), k)
		if err == nil {
			t.Fatalf("P=%d: a team with suspended workers finished", p)
		}
		return err
	}
	got := stuck(3).Error()
	want := "core: stuck did not complete (deadlock at 0.000000s; parked: " +
		"pvm.accept:stuck[0], pvm.task:stuck[0], pvm.accept:stuck[1], pvm.accept:stuck[2], pvm.task:stuck[2])"
	if got != want {
		t.Errorf("deadlock error:\n got %s\nwant %s", got, want)
	}
	big := stuck(20).Error()
	if n := strings.Count(big, "pvm."); n != maxParkedNames {
		t.Errorf("%d names listed for a 20-rank deadlock, want %d: %s", n, maxParkedNames, big)
	}
	if !strings.HasSuffix(big, ", … 23 more)") {
		t.Errorf("truncated list does not say how many were left out: %s", big)
	}
}
