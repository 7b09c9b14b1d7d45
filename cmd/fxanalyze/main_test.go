package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"fxnet/internal/catalog"
	"fxnet/internal/core"
	"fxnet/internal/farm"
	"fxnet/internal/trace"
)

// writeTrace saves tr in the binary format and returns its path.
func writeTrace(t *testing.T, tr *trace.Trace) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteBinary(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// On a saved trace, -mode model is the catalog's fit of the same run:
// the trace replays into the Report the farm folded live, and both go
// through catalog.FitReport, so the DC term, every component and every
// error bound agree bit for bit. Only the run key is the catalog's
// alone (a trace does not carry its whole configuration). The spike
// budget is -peaks, and the spikes are the peaks -mode spectrum lists.
func TestModelModeIsTheCatalogFit(t *testing.T) {
	cfg := core.QuickConfig("sor", 2, 42)
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := writeTrace(t, res.Trace)

	var out bytes.Buffer
	if err := run([]string{"-in", path, "-mode", "model", "-peaks", "8"}, &out); err != nil {
		t.Fatal(err)
	}
	var got catalog.EntryJSON
	if err := json.Unmarshal(out.Bytes(), &got); err != nil {
		t.Fatalf("-mode model output does not decode: %v\n%s", err, out.String())
	}

	cat, err := catalog.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e, _, err := catalog.NewFitter(farm.New(farm.Options{}), cat).Fit(context.Background(), cfg, catalog.Options{Spikes: 8})
	if err != nil {
		t.Fatal(err)
	}
	want := catalog.ToJSON(e)
	if got.DCKBps != want.DCKBps {
		t.Errorf("dc_kbps %v, catalog fit %v", got.DCKBps, want.DCKBps)
	}
	if len(want.Components) == 0 || !reflect.DeepEqual(got.Components, want.Components) {
		t.Errorf("components\n%v\ncatalog fit (%d)\n%v", got.Components, len(want.Components), want.Components)
	}
	want.Key = ""
	if !reflect.DeepEqual(got, want) {
		t.Errorf("entry\n%+v\ncatalog fit\n%+v", got, want)
	}

	// The spikes are the ones -mode spectrum lists for the same -peaks.
	out.Reset()
	if err := run([]string{"-in", path, "-mode", "spectrum", "-peaks", "8"}, &out); err != nil {
		t.Fatal(err)
	}
	var listed, spikes []string
	for _, line := range strings.Split(out.String(), "\n") {
		if f, ok := strings.CutPrefix(line, "#   "); ok {
			listed = append(listed, strings.Fields(f)[0])
		}
	}
	for _, c := range got.Components {
		spikes = append(spikes, fmt.Sprintf("%.4f", float64(c.FreqHz)))
	}
	if strings.Join(spikes, " ") != strings.Join(listed, " ") {
		t.Errorf("model spikes %v, -mode spectrum lists %v", spikes, listed)
	}
}

// A capture with no packets has statistics that say so, and no model:
// there is no bandwidth series to fit.
func TestEmptyTrace(t *testing.T) {
	path := writeTrace(t, trace.New())
	var out bytes.Buffer
	if err := run([]string{"-in", path}, &out); err != nil || out.String() != "empty trace\n" {
		t.Errorf("-mode stats: %q, %v; want \"empty trace\"", out.String(), err)
	}
	out.Reset()
	if err := run([]string{"-in", path, "-mode", "model"}, &out); err == nil || out.Len() != 0 {
		t.Errorf("-mode model: %q, %v; want an error and no model", out.String(), err)
	}
}
