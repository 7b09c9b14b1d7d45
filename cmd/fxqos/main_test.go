package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fxnet/internal/catalog"
	"fxnet/internal/core"
	"fxnet/internal/farm"
	"fxnet/internal/kernels"
	"fxnet/internal/qos"
)

// idleRow is the idle-network table row fxqos prints for an offer.
func idleRow(off qos.Offer) string {
	return fmt.Sprintf("%-8s %4d %12.1f %12.4f %12.4f %14.1f\n",
		off.Program, off.P, off.BurstBandwidth/1000, off.BurstSeconds, off.BurstInterval, off.MeanBandwidth/1000)
}

func fxqos(t *testing.T, args ...string) (stdout, stderr string, err error) {
	t.Helper()
	var o, e bytes.Buffer
	err = run(args, &o, &e)
	return o.String(), e.String(), err
}

// The analytic table is the kernel registry's answer — the laws fxnetd's
// /v1/qos/negotiate and Degrade use — for all five kernels, at the
// defaults and at another capacity and cluster size. (The parent's local
// copy of the t2dfft law divided by P where the registry divides by P/2:
// 0.2523 s / 519.5 KB/s printed against the registry's 0.3998 s / 327.9.)
func TestAnalyticTableIsTheRegistry(t *testing.T) {
	for _, tc := range []struct {
		args     []string
		capacity float64
		maxP     int
	}{
		{nil, 1.25e6, 32},
		{[]string{"-capacity", "12.5e6", "-maxp", "8"}, 12.5e6, 8},
	} {
		out, _, err := fxqos(t, tc.args...)
		if err != nil {
			t.Fatal(err)
		}
		shared := qos.NewNetwork(tc.capacity)
		for _, spec := range kernels.All {
			prog := spec.QoS(spec.Params)
			off, err := qos.NewNetwork(tc.capacity).Negotiate(prog, tc.maxP)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(out, idleRow(off)) {
				t.Errorf("%v: no idle-network row for %s equal to the registry's\n%sin\n%s", tc.args, spec.Name, idleRow(off), out)
			}
			adm, err := shared.Admit(prog, tc.maxP)
			if err != nil {
				t.Fatal(err)
			}
			want := fmt.Sprintf("%-8s admitted with P=%-3d tbi=%8.4fs, remaining capacity %8.1f KB/s\n",
				adm.Program, adm.P, adm.BurstInterval, shared.Available()/1000)
			if !strings.Contains(out, want) {
				t.Errorf("%v: no admission line for %s equal to the registry's\n%sin\n%s", tc.args, spec.Name, want, out)
			}
		}
	}
}

// -catalog negotiates what the catalog holds and fits nothing: an empty
// catalog is an error that names the command to run, a partial one names
// the programs to fit, and the directory is left as it was found.
func TestCatalogAdmitsFromHeldModels(t *testing.T) {
	root := t.TempDir()
	_, _, err := fxqos(t, "-catalog", filepath.Join(root, "empty"))
	if err == nil || !strings.Contains(err.Error(), "fxmodel fit -catalog") {
		t.Errorf("empty catalog: %v, want an error naming fxmodel fit", err)
	}

	// TestCatalogPromises's fixture, less two programs: the -quick
	// configurations at P = 2, 4, seed 42.
	dir := filepath.Join(root, "models")
	cat, err := catalog.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ft := catalog.NewFitter(farm.New(farm.Options{Workers: 2}), cat)
	held := []string{"sor", "2dfft", "t2dfft", "airshed"}
	for _, name := range held {
		for _, p := range []int{2, 4} {
			if _, _, err := ft.Fit(context.Background(), core.QuickConfig(name, p, 42), catalog.Options{}); err != nil {
				t.Fatalf("fit %s P=%d: %v", name, p, err)
			}
		}
	}
	listing := func() string {
		des, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, de := range des {
			fi, err := de.Info()
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "%s %d %v\n", fi.Name(), fi.Size(), fi.ModTime())
		}
		return b.String()
	}
	before := listing()

	out, stderr, err := fxqos(t, "-catalog", dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range held {
		prog, err := cat.Program(name)
		if err != nil {
			t.Fatal(err)
		}
		off, err := qos.NewNetwork(1.25e6).Negotiate(prog, 32)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out, idleRow(off)) {
			t.Errorf("no row for %s equal to the catalog's\n%sin\n%s", name, idleRow(off), out)
		}
	}
	for _, name := range []string{"seq", "hist"} {
		if strings.Contains(out, "\n"+name+" ") {
			t.Errorf("a row for %s, which the catalog holds no model of:\n%s", name, out)
		}
	}
	if want := "fxmodel fit -catalog " + dir + " -programs seq,hist"; !strings.Contains(stderr, want) {
		t.Errorf("stderr %q does not say %q", stderr, want)
	}
	if after := listing(); after != before {
		t.Errorf("fxqos -catalog changed the catalog:\n%s→\n%s", before, after)
	}
}
