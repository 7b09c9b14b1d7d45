package main

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"fxnet/internal/client"
	"fxnet/internal/server"
)

// startNode serves an in-process fxnetd over dir's run cache and drains
// it before the test's temp directories go.
func startNode(t *testing.T, dir string) *httptest.Server {
	t.Helper()
	s, err := server.New(server.Options{Workers: 2, Memoize: true, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Error(err)
		}
	})
	return ts
}

// About a second of modest open-loop load against one node finishes with
// no errors, and the farm report sees both simulations and reuse. Keyed
// submits land every repeat on its first job, so on a cold node each key
// costs exactly one simulation; the node here boots over a cache one
// earlier run (key 1, the warm-up's) already filled, which is the reuse
// the report must show.
func TestDriveReportsFarmReuse(t *testing.T) {
	dir := t.TempDir()
	first := startNode(t, dir)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	fx := client.New(first.URL)
	acc, err := fx.Submit(ctx, runBody(1))
	if err != nil {
		t.Fatal(err)
	}
	if st, err := fx.WaitDone(ctx, acc.ID, 5*time.Millisecond); err != nil || st.State != "done" {
		t.Fatalf("warming run: %+v, %v", st, err)
	}

	rep, err := drive(driveConfig{
		url:      startNode(t, dir).URL,
		rps:      60,
		duration: time.Second,
		clients:  2,
		retries:  3,
		keys:     4,
		seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests == 0 || rep.Errors != 0 {
		t.Errorf("%d requests, %d errors; want some and none", rep.Requests, rep.Errors)
	}
	f := rep.Farm
	if f == nil {
		t.Fatal("no farm report: /metrics scrape failed")
	}
	if f.Executed < 1 || f.CacheHits < 1 || f.ReuseRate <= 0 {
		t.Errorf("farm report %+v: want ≥ 1 executed, ≥ 1 cache hit and a positive reuse rate", *f)
	}
}
