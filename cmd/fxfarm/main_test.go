package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fxnet/internal/catalog"
	"fxnet/internal/core"
	"fxnet/internal/farm"
	"fxnet/internal/kernels"
	"fxnet/internal/trace"
)

// farmRows runs fxfarm with args plus "-q -json <file>" and returns the
// decoded batch, the stderr accounting, and run's error.
func farmRows(t *testing.T, args ...string) ([]batchRow, string, error) {
	t.Helper()
	out := filepath.Join(t.TempDir(), "batch.json")
	var stdout, stderr bytes.Buffer
	runErr := run(append(args, "-q", "-json", out), &stdout, &stderr)
	enc, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("fxfarm %v wrote no batch (%v); stderr:\n%s", args, runErr, stderr.String())
	}
	var rows []batchRow
	if err := json.Unmarshal(enc, &rows); err != nil {
		t.Fatalf("-json output does not decode: %v\n%s", err, enc)
	}
	if n := strings.Count(stdout.String(), "\n"); n != len(rows)+1 {
		t.Errorf("table has %d lines for %d rows:\n%s", n, len(rows), stdout.String())
	}
	return rows, stderr.String(), runErr
}

// same compares two floats as the -json round trip sees them: every
// non-finite value is "undefined".
func same(a catalog.JSONFloat, b float64) bool {
	fa, fb := float64(a), b
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	return fa == fb || (!finite(fa) && !finite(fb))
}

// Every row is the Report of core.RunStream on the same configuration —
// the measured configuration, nothing hard-coded by the runner — whatever
// the worker count and whether the run executed or came from the cache.
func TestRowsEqualRunStream(t *testing.T) {
	progs := []string{"sor", "2dfft", "seq", "hist"}
	type want struct {
		kbps, fund float64
		packets    int
		key        string
	}
	wants := map[string]want{}
	for _, prog := range progs {
		for _, p := range []int{2, 4} {
			cfg := core.RunConfig{Program: prog, P: p, Seed: 42, Params: kernels.Params{N: 64, Iters: 10}}
			_, rep, err := core.RunStream(cfg)
			if err != nil {
				t.Fatal(err)
			}
			wants[fmt.Sprintf("%s/P%d/s42", prog, p)] = want{
				rep.AggKBps, rep.AggSpectrum.DominantFreq(), rep.AggSize.N, farm.Key(cfg)}
		}
	}
	for _, j := range []string{"1", "4"} {
		cache := t.TempDir()
		for _, state := range []string{"cold", "warm"} {
			rows, stderr, err := farmRows(t, "-programs", strings.Join(progs, ","), "-p", "2,4",
				"-n", "64", "-iters", "10", "-j", j, "-cache", cache)
			if err != nil {
				t.Fatalf("-j %s %s: %v", j, state, err)
			}
			if len(rows) != len(wants) {
				t.Fatalf("-j %s %s: %d rows, want %d", j, state, len(rows), len(wants))
			}
			for _, r := range rows {
				w, ok := wants[r.Label]
				if !ok {
					t.Errorf("-j %s %s: unexpected row %q", j, state, r.Label)
					continue
				}
				if !same(r.KBps, w.kbps) || !same(r.FundamentalHz, w.fund) || !same(r.PeriodSec, 1/w.fund) ||
					r.Packets != w.packets || r.Key != w.key {
					t.Errorf("-j %s %s %s: row %v KB/s, %v Hz, %v s, %d packets, key %.8s; RunStream gives %v, %v, %v, %d, %.8s",
						j, state, r.Label, r.KBps, r.FundamentalHz, r.PeriodSec, r.Packets, r.Key,
						w.kbps, w.fund, 1/w.fund, w.packets, w.key)
				}
				if r.Cached != (state == "warm") {
					t.Errorf("-j %s %s %s: cached = %v", j, state, r.Label, r.Cached)
				}
			}
			if wantExec := map[string]string{"cold": "executed=8 ", "warm": "executed=0 "}[state]; !strings.Contains(stderr, wantExec) {
				t.Errorf("-j %s %s: accounting %q, want %s", j, state, strings.TrimSpace(stderr), wantExec)
			}
		}
	}
}

// The two dimensions fxsweep had: each list value is one row with its
// own label and its own cache key.
func TestLossAndMediaDimensions(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		labels []string
	}{
		{[]string{"-loss", "0,0.01"}, []string{"seq/s42", "seq/s42/loss=0.01"}},
		{[]string{"-media", "shared,switched"}, []string{"seq/s42", "seq/s42/switched"}},
		{[]string{"-loss", "0.01,0.05", "-bitrates", "10e6,100e6"}, []string{
			"seq/s42/10Mbps/loss=0.01", "seq/s42/10Mbps/loss=0.05",
			"seq/s42/100Mbps/loss=0.01", "seq/s42/100Mbps/loss=0.05"}},
	} {
		rows, _, err := farmRows(t, append([]string{"-programs", "seq", "-n", "8", "-iters", "1"}, tc.args...)...)
		if err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		keys := map[string]bool{}
		var labels []string
		for _, r := range rows {
			labels = append(labels, r.Label)
			keys[r.Key] = true
			cfg := core.RunConfig{Program: "seq", Seed: 42, Params: kernels.Params{N: 8, Iters: 1},
				BitRate: r.BitRate, FrameLossProb: r.Loss, Switched: r.Switched}
			if r.Key != farm.Key(cfg) {
				t.Errorf("%v: row %s does not carry the configuration its key names", tc.args, r.Label)
			}
			if r.Packets == 0 || r.Error != "" {
				t.Errorf("%v: row %s did not run: %+v", tc.args, r.Label, r)
			}
		}
		if strings.Join(labels, " ") != strings.Join(tc.labels, " ") {
			t.Errorf("%v: rows %v, want %v", tc.args, labels, tc.labels)
		}
		if len(keys) != len(rows) {
			t.Errorf("%v: %d distinct keys over %d rows", tc.args, len(keys), len(rows))
		}
	}
	var stderr bytes.Buffer
	if err := run([]string{"-media", "token-ring"}, &stderr, &stderr); err == nil || !strings.Contains(err.Error(), "token-ring") {
		t.Errorf("-media token-ring: %v", err)
	}
}

// -out is the one thing that needs packets: the run is then a trace job,
// under the same key, and the row still counts what the trace holds.
func TestOutKeepsTheTrace(t *testing.T) {
	args := []string{"-programs", "seq", "-n", "8", "-iters", "1"}
	stream, _, err := farmRows(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	kept, _, err := farmRows(t, append(args, "-out", dir)...)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(filepath.Join(dir, "seq_s42.trace"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := trace.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() == 0 || kept[0].Packets != tr.Len() || stream[0].Packets != tr.Len() || kept[0].Key != stream[0].Key {
		t.Errorf("trace holds %d packets; -out row %d under %.8s, stream row %d under %.8s",
			tr.Len(), kept[0].Packets, kept[0].Key, stream[0].Packets, stream[0].Key)
	}
}

// A configuration the run path refuses costs its own row, not the batch:
// every row carries core.Validate's message and fxfarm exits non-zero.
func TestRefusalReportedPerRow(t *testing.T) {
	const spec = "lan0:0-1,lan1:2-3"
	rows, _, err := farmRows(t, "-programs", "sor,seq", "-n", "8", "-iters", "1", "-media", "shared,switched", "-topology", spec)
	if err == nil || !strings.Contains(err.Error(), "2 of 4 runs refused") {
		t.Errorf("run error %v, want 2 of 4 runs refused", err)
	}
	topo, terr := core.ParseTopology(spec)
	if terr != nil {
		t.Fatal(terr)
	}
	for _, r := range rows {
		want := ""
		if verr := core.Validate(core.RunConfig{Program: r.Program, Switched: r.Switched, Topology: topo}); verr != nil {
			want = verr.Error()
		}
		if r.Switched == (want == "") || r.Error != want {
			t.Errorf("%s: error %q, want core.Validate's %q", r.Label, r.Error, want)
		}
		if (r.Packets > 0) == r.Switched {
			t.Errorf("%s: %d packets", r.Label, r.Packets)
		}
	}
}

// A processor count is an integer: -p 2.5 is refused, not run at P = 2.
func TestFractionalProcessorCountRefused(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"-programs", "seq", "-n", "8", "-iters", "1", "-p", "2,2.5", "-q"}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), `"2.5"`) {
		t.Errorf("-p 2,2.5: error %v, want a refusal naming 2.5", err)
	}
	if stdout.Len() != 0 {
		t.Errorf("-p 2,2.5 ran:\n%s", stdout.String())
	}
}

// A seed range expands in order and progress goes to stderr, one line
// per row. A configuration listed twice runs once: its twin is a dedup
// whether or not the first was still in flight. A run a fault aborts is
// a row that says so, not a refusal, and the cache keeps it like any
// other: the second pass runs nothing.
func TestSeedRangeProgressAndAbortedRun(t *testing.T) {
	out := filepath.Join(t.TempDir(), "batch.json")
	args := []string{"-programs", "seq", "-n", "8", "-iters", "1", "-seeds", "1-2,2",
		"-faults", "0.05s:crash host1", "-j", "1", "-cache", t.TempDir(), "-json", out}
	for _, pass := range []struct {
		progress  []string
		wantDedup bool
	}{
		{[]string{"fxfarm: ran seq/s1 (", "fxfarm: dedup seq/s2 (", "executed=2 hits=0 dedup=1 "}, true},
		{[]string{"fxfarm: cache hit seq/s1 (", "executed=0 hits=2 dedup=1 "}, false},
	} {
		var stdout, stderr bytes.Buffer
		if err := run(args, &stdout, &stderr); err != nil {
			t.Fatal(err)
		}
		enc, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		var rows []batchRow
		if err := json.Unmarshal(enc, &rows); err != nil {
			t.Fatal(err)
		}
		var labels []string
		for _, r := range rows {
			labels = append(labels, r.Label)
			if !strings.HasPrefix(r.RunFailed, "fx: seq rank ") {
				t.Errorf("%s: run_failed %q, want the fault abort", r.Label, r.RunFailed)
			}
		}
		if got := strings.Join(labels, " "); got != "seq/s1 seq/s2 seq/s2" {
			t.Errorf("rows %s, want seq/s1 seq/s2 seq/s2", got)
		}
		if len(rows) == 3 && (rows[0].Deduped || rows[1].Deduped == rows[2].Deduped) {
			t.Errorf("deduped = %v, %v, %v, want one of the s2 twins only", rows[0].Deduped, rows[1].Deduped, rows[2].Deduped)
		}
		for _, want := range pass.progress {
			if !strings.Contains(stderr.String(), want) {
				t.Errorf("stderr lacks %q:\n%s", want, stderr.String())
			}
		}
		if strings.Contains(stdout.String(), " dedup\n") != pass.wantDedup {
			t.Errorf("a row names dedup as its source: %v, want %v:\n%s", !pass.wantDedup, pass.wantDedup, stdout.String())
		}
	}
}

// "-json -" is the batch alone on stdout, and valid JSON even for a run
// too short to have a spectral peak (fundamental 0, period +Inf).
func TestJSONToStdoutIsValid(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-programs", "sor", "-n", "16", "-iters", "2", "-q", "-json", "-"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(stdout.Bytes()) {
		t.Fatalf("stdout is not valid JSON:\n%s", stdout.String())
	}
	if !strings.Contains(stdout.String(), `"period_s": null`) {
		t.Errorf("the undefined period is not null:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "fund (Hz)") {
		t.Errorf("the table did not move to stderr:\n%s", stderr.String())
	}
}

// A row with no spectral peak has FundamentalHz = 0 and PeriodSec =
// +Inf; a degenerate series can yield NaN. The -json output must stay
// valid JSON (null), and decoding must keep "undefined" distinguishable
// from a real zero.
func TestEncodeRowsNonFinite(t *testing.T) {
	rows := []batchRow{
		{Label: "sor/s42/loss=0.05", Program: "sor", Seed: 42, Loss: 0.05,
			KBps: 12.5, FundamentalHz: 0, PeriodSec: catalog.JSONFloat(math.Inf(1)), Packets: 10},
		{Label: "sor/s42/loss=0.1", Program: "sor", Seed: 42, Loss: 0.10,
			KBps: catalog.JSONFloat(math.NaN()), FundamentalHz: catalog.JSONFloat(math.NaN()),
			PeriodSec: catalog.JSONFloat(math.Inf(-1)), Packets: 0},
	}
	enc, err := encodeRows(rows)
	if err != nil {
		t.Fatalf("encodeRows: %v", err)
	}
	if !json.Valid(enc) {
		t.Fatalf("output is not valid JSON:\n%s", enc)
	}
	if !strings.Contains(string(enc), `"period_s": null`) {
		t.Errorf("Inf period not rendered as null:\n%s", enc)
	}

	var back []batchRow
	if err := json.Unmarshal(enc, &back); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if len(back) != 2 {
		t.Fatalf("round trip: %d rows, want 2", len(back))
	}
	if float64(back[0].KBps) != 12.5 || float64(back[0].FundamentalHz) != 0 {
		t.Errorf("finite values corrupted: %+v", back[0])
	}
	// Non-finite values come back as NaN, not 0.
	for _, v := range []float64{float64(back[0].PeriodSec), float64(back[1].KBps),
		float64(back[1].FundamentalHz), float64(back[1].PeriodSec)} {
		if !math.IsNaN(v) {
			t.Errorf("non-finite value decoded as %v, want NaN", v)
		}
	}
}

// The failure mode this guards against: encoding/json rejects bare
// non-finite floats outright, which used to abort the whole batch.
func TestBareNonFiniteWouldFail(t *testing.T) {
	_, err := json.Marshal(math.Inf(1))
	if err == nil {
		t.Skip("encoding/json accepts Inf now; catalog.JSONFloat is belt-and-suspenders")
	}
}
