package farm

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"fxnet/internal/core"
	"fxnet/internal/kernels"
)

// tinyConfig is a seconds-scale run for cache tests.
func tinyConfig(seed int64) core.RunConfig {
	return core.RunConfig{
		Program: "sor", Seed: seed,
		Params:            kernels.Params{N: 16, Iters: 2},
		KeepaliveInterval: -1,
	}
}

func tinyRun(t testing.TB, seed int64) (*core.Result, *core.Report) {
	t.Helper()
	res, err := core.Run(tinyConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	return res, core.Characterize(res)
}

func traceBytes(t testing.TB, res *core.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := res.Trace.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestCacheRoundTrip(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig(1)
	res, rep := tinyRun(t, 1)
	key := Key(cfg)

	if _, _, ok := c.Load(key, cfg); ok {
		t.Fatal("load before store reported a hit")
	}
	if err := c.Store(key, res, rep); err != nil {
		t.Fatal(err)
	}
	got, gotRep, ok := c.Load(key, cfg)
	if !ok {
		t.Fatal("load after store missed")
	}
	if !bytes.Equal(traceBytes(t, got), traceBytes(t, res)) {
		t.Error("trace did not survive the cache byte-identically")
	}
	if got.Elapsed != res.Elapsed {
		t.Errorf("elapsed: got %v want %v", got.Elapsed, res.Elapsed)
	}
	if got.SegStats != res.SegStats {
		t.Errorf("segstats: got %+v want %+v", got.SegStats, res.SegStats)
	}
	if got.RepConn != res.RepConn {
		t.Errorf("repconn: got %v want %v", got.RepConn, res.RepConn)
	}
	if got.Workers != nil || got.Team != nil {
		t.Error("cached result carries live worker/team handles")
	}
	if gotRep.AggKBps != rep.AggKBps || gotRep.AggSize != rep.AggSize ||
		gotRep.SizeModes != rep.SizeModes || gotRep.Coincidence != rep.Coincidence {
		t.Errorf("report did not survive the cache: got %+v", gotRep)
	}
	if gotRep.AggSpectrum.DominantFreq() != rep.AggSpectrum.DominantFreq() {
		t.Error("spectrum did not survive the cache")
	}
}

// cacheFile returns the single entry file in the cache dir.
func cacheFile(t *testing.T, c *Cache) string {
	t.Helper()
	ents, err := filepath.Glob(filepath.Join(c.st.Dir(), "*.fxrun"))
	if err != nil || len(ents) != 1 {
		t.Fatalf("want one cache entry, got %v (%v)", ents, err)
	}
	return ents[0]
}

func TestCacheTolerantOfDamage(t *testing.T) {
	cfg := tinyConfig(2)
	res, rep := tinyRun(t, 2)
	key := Key(cfg)

	damage := map[string]func([]byte) []byte{
		"truncated-header": func(b []byte) []byte { return b[:10] },
		"truncated-body":   func(b []byte) []byte { return b[:len(b)/2] },
		"empty":            func(b []byte) []byte { return nil },
		"bit-flip": func(b []byte) []byte {
			b[len(b)-5] ^= 0x40
			return b
		},
		"bad-magic": func(b []byte) []byte {
			copy(b, "NOTAFARM")
			return b
		},
		"garbage": func([]byte) []byte { return []byte("not a cache entry at all") },
	}
	for name, corrupt := range damage {
		t.Run(name, func(t *testing.T) {
			c, err := OpenCache(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Store(key, res, rep); err != nil {
				t.Fatal(err)
			}
			path := cacheFile(t, c)
			body, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, corrupt(body), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, _, ok := c.Load(key, cfg); ok {
				t.Fatal("damaged entry reported as a hit")
			}
			// The farm's contract: damage costs a recompute, never an error.
			f := New(Options{Workers: 1, Cache: c})
			got, _, err := f.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(traceBytes(t, got), traceBytes(t, res)) {
				t.Error("recomputed run differs from original")
			}
			if s := f.Stats(); s.Executed != 1 || s.CacheHits != 0 {
				t.Errorf("stats after damaged entry: %+v, want 1 execution", s)
			}
		})
	}
}

// TestCacheEntryWithoutReport exercises the degenerate-characterization
// path: an entry stored with no report section recomputes it on load.
func TestCacheEntryWithoutReport(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig(3)
	res, rep := tinyRun(t, 3)
	key := Key(cfg)
	body, err := encodeEntry(res, nil, cacheMagic)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(c.st.Dir(), key+runExt), body, 0o644); err != nil {
		t.Fatal(err)
	}
	_, gotRep, ok := c.Load(key, cfg)
	if !ok {
		t.Fatal("report-less entry missed")
	}
	if gotRep == nil || gotRep.AggKBps != rep.AggKBps {
		t.Errorf("recomputed report wrong: %+v", gotRep)
	}
}

// A corrupt entry of either kind is a miss that is quarantined under its
// kind and leaves the census; a second probe is a plain miss, and a
// re-store heals the key. (Where the evidence goes and how the census
// survives a reopen is the store's business: durable.TestCensusQuarantineReopen.)
func TestCacheQuarantinesCorruptEntry(t *testing.T) {
	cfg := tinyConfig(3)
	res, rep := tinyRun(t, 3)
	key := Key(cfg)
	for kind, stream := range map[string]bool{"run": false, "spec": true} {
		ext, _ := kindOf(stream)
		t.Run(kind, func(t *testing.T) {
			c, err := OpenCache(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			store, load := c.Store, c.Load
			if stream {
				store, load = c.storeStream, c.LoadStream
			}
			if err := store(key, res, rep); err != nil {
				t.Fatal(err)
			}
			// Rot the stored entry: flip one byte in the middle.
			p := filepath.Join(c.st.Dir(), key+ext)
			body, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			body[len(body)/2] ^= 0x01
			if err := os.WriteFile(p, body, 0o644); err != nil {
				t.Fatal(err)
			}
			for probe := 1; probe <= 2; probe++ {
				if _, _, ok := load(key, cfg); ok {
					t.Fatalf("probe %d: corrupt entry loaded as a hit", probe)
				}
				if got := c.QuarantinedKinds(); c.Quarantined() != 1 || got[kind] != 1 {
					t.Fatalf("probe %d: quarantined = %d %v, want 1 under %q", probe, c.Quarantined(), got, kind)
				}
			}
			if _, err := os.Stat(filepath.Join(c.st.Dir(), "corrupt", key+ext)); err != nil {
				t.Errorf("evidence not in corrupt/: %v", err)
			}
			if st := c.Stats(); st != (CacheStats{}) {
				t.Errorf("census still counts the quarantined entry: %+v", st)
			}
			if err := store(key, res, rep); err != nil {
				t.Fatal(err)
			}
			if _, _, ok := load(key, cfg); !ok {
				t.Fatal("re-stored entry missed")
			}
		})
	}
}

// storeStream writes a spectrum-level entry, as a stream job's leader
// does.
func (c *Cache) storeStream(key string, res *core.Result, rep *core.Report) error {
	return c.store(key, res, rep, true)
}

// TestCacheShortKey: the temp name used to slice key[:16] and panic on
// a shorter key, for either entry kind.
func TestCacheShortKey(t *testing.T) {
	res, rep := tinyRun(t, 5)
	for _, stream := range []bool{false, true} {
		c, err := OpenCache(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		store, load := c.Store, c.Load
		if stream {
			store, load = c.storeStream, c.LoadStream
		}
		if err := store("abc", res, rep); err != nil {
			t.Fatalf("store (stream=%v) under a 3-byte key: %v", stream, err)
		}
		if _, _, ok := load("abc", tinyConfig(5)); !ok {
			t.Errorf("stored 3-byte key (stream=%v) does not load", stream)
		}
	}
}

// TestCacheReadsParentLayout: a directory as the pre-durable.Store code
// left it — entries written straight under <key>.fxrun / <key>.fxspec
// with the (unchanged) entry codec, an orphaned old-style temp file, old
// evidence in corrupt/ — is served with zero quarantines and zero
// re-executions, and the census counts exactly the two entries.
func TestCacheReadsParentLayout(t *testing.T) {
	dir := t.TempDir()
	cfg := tinyConfig(6)
	res, rep := tinyRun(t, 6)
	key := Key(cfg)
	var want int64
	for ext, magic := range map[string]string{".fxrun": "FXFARM01", ".fxspec": "FXSPEC01"} {
		body, err := encodeEntry(res, rep, magic)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, key+ext), body, 0o600); err != nil {
			t.Fatal(err)
		}
		want += int64(len(body))
	}
	if err := os.WriteFile(filepath.Join(dir, "tmp-"+key[:16]+"-123456789"), []byte("torn"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "corrupt"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "corrupt", "old.fxrun"), []byte("evidence"), 0o600); err != nil {
		t.Fatal(err)
	}

	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st != (CacheStats{Entries: 2, Bytes: want}) {
		t.Errorf("census = %+v, want 2 entries / %d bytes", st, want)
	}
	f := New(Options{Workers: 1, Cache: c})
	got, _, err := f.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(traceBytes(t, got), traceBytes(t, res)) {
		t.Error("parent-layout run entry decoded to a different trace")
	}
	if _, _, err := runStream(f, cfg); err != nil {
		t.Fatal(err)
	}
	if s := f.Stats(); s.Executed != 0 || s.CacheHits != 2 || c.Quarantined() != 0 {
		t.Errorf("stats %+v quarantined %d, want 0 executed / 2 hits / 0 quarantined", s, c.Quarantined())
	}
}
