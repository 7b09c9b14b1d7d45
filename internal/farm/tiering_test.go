package farm

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMemoLRUEntriesCap: with a 2-entry cap, running 3 distinct configs
// evicts the oldest; resubmitting it re-executes while the newer two
// still answer from memory.
func TestMemoLRUEntriesCap(t *testing.T) {
	f := New(Options{Workers: 1, Memoize: true, MemoMaxEntries: 2})
	for seed := int64(1); seed <= 3; seed++ {
		if _, _, err := f.Run(tinyConfig(seed)); err != nil {
			t.Fatal(err)
		}
	}
	if s := f.Stats(); s.Executed != 3 || s.MemoEvicted != 1 {
		t.Fatalf("stats %+v, want 3 executed / 1 evicted", s)
	}
	// Seeds 2 and 3 are still memoized.
	for seed := int64(2); seed <= 3; seed++ {
		if _, _, err := f.Run(tinyConfig(seed)); err != nil {
			t.Fatal(err)
		}
	}
	if s := f.Stats(); s.Executed != 3 {
		t.Fatalf("memoized reruns executed: %+v", s)
	}
	// Seed 1 was evicted: it must re-execute (correct, just not cached).
	if _, _, err := f.Run(tinyConfig(1)); err != nil {
		t.Fatal(err)
	}
	if s := f.Stats(); s.Executed != 4 {
		t.Fatalf("evicted key did not re-execute: %+v", s)
	}
}

// TestMemoLRUBytesCap: a byte cap far below one result's footprint
// still retains the most recent entry (the cap never evicts the newest
// result, or memoization would be useless) but evicts predecessors.
func TestMemoLRUBytesCap(t *testing.T) {
	f := New(Options{Workers: 1, Memoize: true, MemoMaxBytes: 1})
	if _, _, err := f.Run(tinyConfig(1)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.Run(tinyConfig(1)); err != nil {
		t.Fatal(err)
	}
	if s := f.Stats(); s.Executed != 1 || s.Deduped != 1 {
		t.Fatalf("newest entry not retained under byte cap: %+v", s)
	}
	if _, _, err := f.Run(tinyConfig(2)); err != nil {
		t.Fatal(err)
	}
	if s := f.Stats(); s.MemoEvicted != 1 {
		t.Fatalf("predecessor not evicted under byte cap: %+v", s)
	}
}

// TestMemoUncappedByDefault preserves the pre-LRU contract: zero caps
// never evict.
func TestMemoUncappedByDefault(t *testing.T) {
	f := New(Options{Workers: 1, Memoize: true})
	for seed := int64(1); seed <= 4; seed++ {
		if _, _, err := f.Run(tinyConfig(seed)); err != nil {
			t.Fatal(err)
		}
	}
	for seed := int64(1); seed <= 4; seed++ {
		if _, _, err := f.Run(tinyConfig(seed)); err != nil {
			t.Fatal(err)
		}
	}
	if s := f.Stats(); s.Executed != 4 || s.MemoEvicted != 0 {
		t.Fatalf("stats %+v, want 4 executed / 0 evicted", s)
	}
}

// TestPeerFetchTier: a farm whose local disk misses pulls the entry
// from a "peer" cache (here: another directory) through the PeerFetch
// hook and serves it as a cache hit without executing.
func TestPeerFetchTier(t *testing.T) {
	peerDir, localDir := t.TempDir(), t.TempDir()
	peerCache, err := OpenCache(peerDir)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the peer.
	warm := New(Options{Workers: 1, Cache: peerCache})
	cfg := tinyConfig(42)
	res, _, err := warm.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	key := Key(cfg)

	localCache, err := OpenCache(localDir)
	if err != nil {
		t.Fatal(err)
	}
	fetches := 0
	f := New(Options{Workers: 1, Cache: localCache,
		PeerFetch: func(ctx context.Context, k string, stream bool) bool {
			fetches++
			if k != key || stream {
				t.Errorf("peer fetch for key=%s stream=%v", k, stream)
			}
			rc, _, err := peerCache.OpenEntry(k, stream)
			if err != nil {
				return false
			}
			defer rc.Close()
			if _, err := localCache.InstallRaw(k, stream, rc); err != nil {
				t.Errorf("install: %v", err)
				return false
			}
			return true
		}})
	got, _, err := f.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fetches != 1 {
		t.Fatalf("peer fetches = %d, want 1", fetches)
	}
	if s := f.Stats(); s.Executed != 0 || s.CacheHits != 1 || s.PeerHits != 1 {
		t.Fatalf("stats %+v, want 0 executed / 1 cache hit / 1 peer hit", s)
	}
	if !bytes.Equal(traceBytes(t, got), traceBytes(t, res)) {
		t.Fatal("peer-fetched trace differs from the original")
	}
}

// TestPeerFetchMissFallsThrough: a fetch that finds nothing leaves the
// job to execute normally.
func TestPeerFetchMissFallsThrough(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	f := New(Options{Workers: 1, Cache: c,
		PeerFetch: func(ctx context.Context, k string, stream bool) bool { return false }})
	if _, _, err := f.Run(tinyConfig(7)); err != nil {
		t.Fatal(err)
	}
	if s := f.Stats(); s.Executed != 1 || s.PeerHits != 0 {
		t.Fatalf("stats %+v, want 1 executed / 0 peer hits", s)
	}
}

// TestInstallRawVerifiesDigest: a bit-flipped entry body is refused,
// counted as a quarantine of its kind (the store keeps the spooled bytes
// as .fetched evidence: durable.TestVerificationFailureKeepsEvidence),
// and the key stays a miss.
func TestInstallRawVerifiesDigest(t *testing.T) {
	srcDir, dstDir := t.TempDir(), t.TempDir()
	src, err := OpenCache(srcDir)
	if err != nil {
		t.Fatal(err)
	}
	warm := New(Options{Workers: 1, Cache: src})
	cfg := tinyConfig(9)
	if _, _, err := warm.Run(cfg); err != nil {
		t.Fatal(err)
	}
	key := Key(cfg)
	body, err := os.ReadFile(filepath.Join(srcDir, key+".fxrun"))
	if err != nil {
		t.Fatal(err)
	}
	body[len(body)-1] ^= 0x01 // flip a payload bit

	dst, err := OpenCache(dstDir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dst.InstallRaw(key, false, bytes.NewReader(body)); err == nil {
		t.Fatal("InstallRaw accepted a corrupt entry")
	} else if !strings.Contains(err.Error(), "digest mismatch") {
		t.Fatalf("unexpected error: %v", err)
	}
	if dst.Quarantined() != 1 {
		t.Fatalf("quarantined = %d, want 1", dst.Quarantined())
	}
	if kinds := dst.QuarantinedKinds(); kinds["run"] != 1 {
		t.Fatalf("quarantine kinds = %v", kinds)
	}
	if _, _, ok := dst.Load(key, cfg); ok {
		t.Fatal("corrupt install became loadable")
	}
	if dst.StoreFailures() != 0 {
		t.Fatal("a lying peer is not a store failure")
	}
	if st := dst.Stats(); st.Entries != 0 {
		t.Fatalf("census counts a never-published entry: %+v", st)
	}

	// The clean body installs fine and round-trips.
	body[len(body)-1] ^= 0x01
	n, err := dst.InstallRaw(key, false, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(body)) {
		t.Fatalf("installed %d bytes, want %d", n, len(body))
	}
	if _, _, ok := dst.Load(key, cfg); !ok {
		t.Fatal("installed entry does not load")
	}
	if st := dst.Stats(); st.Entries != 1 || st.Bytes != int64(len(body)) {
		t.Fatalf("census = %+v, want 1 entry / %d bytes", st, len(body))
	}
}

// TestInstallRawRejectsBadMagic: a stream entry cannot be installed
// under the run kind (and vice versa) — the magic check runs before any
// bytes are spooled.
func TestInstallRawRejectsBadMagic(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	junk := append([]byte("NOTMAGIC"), make([]byte, 64)...)
	if _, err := c.InstallRaw("00112233445566778899aabbccddeeff", false, bytes.NewReader(junk)); err == nil {
		t.Fatal("InstallRaw accepted a bad magic")
	}
	if c.Quarantined() != 0 {
		t.Fatal("bad magic should be refused, not quarantined (nothing was spooled)")
	}
}
