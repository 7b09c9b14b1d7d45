package main

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
)

// TestReproByteIdenticalAcrossJ is the farm's determinism acceptance
// test: every table and figure number fxrepro prints must be
// byte-identical between the serial run and any parallel worker count,
// and between cold- and warm-cache runs.
func TestReproByteIdenticalAcrossJ(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full tiny-scale reproductions")
	}
	base := reproOptions{Tiny: true, Seed: 42}

	runWith := func(opts reproOptions) string {
		t.Helper()
		var out bytes.Buffer
		if _, err := repro(opts, &out, io.Discard); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}

	serialOpts := base
	serialOpts.Jobs = 1
	serial := runWith(serialOpts)
	if len(serial) == 0 {
		t.Fatal("serial repro printed nothing")
	}
	for _, jobs := range []int{2, 4, 8} {
		opts := base
		opts.Jobs = jobs
		if got := runWith(opts); got != serial {
			t.Errorf("-j %d output differs from serial run:\n%s", jobs, firstDiff(serial, got))
		}
	}
}

// TestReproWarmCacheRunsNothing: a warm-cache rerun must execute zero
// simulations and still print byte-identical tables.
func TestReproWarmCacheRunsNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full tiny-scale reproductions")
	}
	opts := reproOptions{Tiny: true, Seed: 42, Jobs: 4, CacheDir: t.TempDir()}

	var cold bytes.Buffer
	coldStats, err := repro(opts, &cold, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if coldStats.Executed == 0 {
		t.Fatal("cold run executed no simulations")
	}

	var warm bytes.Buffer
	warmStats, err := repro(opts, &warm, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if warmStats.Executed != 0 {
		t.Errorf("warm-cache rerun executed %d simulations, want 0", warmStats.Executed)
	}
	if warmStats.CacheHits != warmStats.Submitted {
		t.Errorf("warm-cache rerun: %d hits for %d jobs", warmStats.CacheHits, warmStats.Submitted)
	}
	if cold.String() != warm.String() {
		t.Errorf("warm-cache output differs from cold run:\n%s", firstDiff(cold.String(), warm.String()))
	}
}

// Every published value prints as exactly one graded row, here at
// -tiny, where most rows miss.
func TestEveryPaperValueGradedOnce(t *testing.T) {
	var doc strings.Builder
	if _, err := repro(reproOptions{Tiny: true, Seed: 42}, &doc, io.Discard); err != nil {
		t.Fatal(err)
	}
	for name, row := range paper {
		for f := range row {
			if n := strings.Count(doc.String(), "| `"+name+"/"+f+"` |"); n != 1 {
				t.Errorf("%s/%s prints %d times, want once", name, f, n)
			}
		}
	}
}

// firstDiff renders the first differing line of two outputs.
func firstDiff(a, b string) string {
	al, bl := bytes.Split([]byte(a), []byte("\n")), bytes.Split([]byte(b), []byte("\n"))
	for i := 0; i < len(al) && i < len(bl); i++ {
		if !bytes.Equal(al[i], bl[i]) {
			return fmt.Sprintf("line %d: %q vs %q", i+1, al[i], bl[i])
		}
	}
	return "outputs differ in length"
}
