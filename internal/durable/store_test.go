package durable

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

const (
	extA = ".a"
	extB = ".b"
)

func openStore(t *testing.T, fs FS, dir string) *Store {
	t.Helper()
	s, err := Open(fs, dir, extA, extB)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// assertClean requires that the directory holds no temp file.
func assertClean(t *testing.T, dir string) {
	t.Helper()
	if tmps, _ := filepath.Glob(filepath.Join(dir, "tmp-*")); len(tmps) != 0 {
		t.Errorf("temp files left behind: %v", tmps)
	}
}

// dirSyncFailFS fails only the directory fsync: FaultFS.SyncErr fails the
// file's fsync first, so the rename would never be reached.
type dirSyncFailFS struct {
	FS
	err error
}

func (f *dirSyncFailFS) SyncDir(dir string) error {
	if f.err != nil {
		return f.err
	}
	return f.FS.SyncDir(dir)
}

// TestPublishOnDegradedDisk is the table ROADMAP item 3 asked for: every
// way a disk can fail a publish leaves no entry, no temp file, an
// unchanged census and one counted failure, and a retry on a healed disk
// succeeds. The slow disk is the one degraded mode that must still
// publish — and must never show a reader a partial entry while it does.
func TestPublishOnDegradedDisk(t *testing.T) {
	body := bytes.Repeat([]byte("0123456789abcdef"), 64)
	errSync := errors.New("injected sync failure")
	type heal func()
	cases := []struct {
		name string
		fs   func() (FS, heal)
		want error // nil: the publish succeeds
	}{
		{"full-before-first-byte", func() (FS, heal) {
			f := &FaultFS{FS: OSFS{}, WriteBudget: 0}
			return f, func() { f.WriteBudget = -1 }
		}, ErrDiskFull},
		{"full-mid-body", func() (FS, heal) {
			f := &FaultFS{FS: OSFS{}, WriteBudget: int64(len(body) / 2)}
			return f, func() { f.WriteBudget = -1 }
		}, ErrDiskFull},
		{"full-one-byte-short", func() (FS, heal) {
			f := &FaultFS{FS: OSFS{}, WriteBudget: int64(len(body) - 1)}
			return f, func() { f.WriteBudget = -1 }
		}, ErrDiskFull},
		{"file-sync-error", func() (FS, heal) {
			f := &FaultFS{FS: OSFS{}, WriteBudget: -1, SyncErr: errSync}
			return f, func() { f.SyncErr = nil }
		}, errSync},
		{"dir-sync-error", func() (FS, heal) {
			f := &dirSyncFailFS{FS: OSFS{}, err: errSync}
			return f, func() { f.err = nil }
		}, errSync},
		{"slow-disk", func() (FS, heal) {
			return &FaultFS{FS: OSFS{}, WriteBudget: -1, WriteDelay: 5 * time.Millisecond}, func() {}
		}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			// One healthy entry first, so "census unchanged" is not 0 == 0.
			if _, err := openStore(t, nil, dir).Publish("resident", extA, Bytes([]byte("resident"))); err != nil {
				t.Fatal(err)
			}
			fs, heal := tc.fs()
			s := openStore(t, fs, dir)
			before := s.Census(extA, extB)

			// A reader polling the key throughout must see a miss or the
			// whole entry, never a prefix.
			stop, polled := make(chan struct{}), make(chan struct{})
			go func() {
				defer close(polled)
				for {
					if got, err := s.Read("k", extA); err == nil && !bytes.Equal(got, body) {
						t.Errorf("reader saw a partial entry (%d of %d bytes)", len(got), len(body))
					}
					select {
					case <-stop:
						return
					default:
					}
				}
			}()
			// Four writes, so a slow disk keeps the temp file open a while.
			_, err := s.Publish("k", extA, func(w io.Writer) error {
				for i := 0; i < 4; i++ {
					if _, err := w.Write(body[i*len(body)/4 : (i+1)*len(body)/4]); err != nil {
						return err
					}
				}
				return nil
			})
			close(stop)
			<-polled
			assertClean(t, dir)
			if tc.want == nil {
				if err != nil {
					t.Fatalf("publish on a slow disk: %v", err)
				}
				if s.Failures() != 0 {
					t.Errorf("failures = %d, want 0", s.Failures())
				}
			} else {
				if !errors.Is(err, tc.want) {
					t.Fatalf("publish error = %v, want %v", err, tc.want)
				}
				if _, err := os.Stat(filepath.Join(dir, "k"+extA)); !os.IsNotExist(err) {
					t.Errorf("failed publish left an entry under the final name (stat err %v)", err)
				}
				if _, err := s.Read("k", extA); err == nil {
					t.Error("failed publish is readable")
				}
				if s.Failures() != 1 {
					t.Errorf("failures = %d, want 1", s.Failures())
				}
				if got := s.Census(extA, extB); got != before {
					t.Errorf("census moved on a failed publish: %+v → %+v", before, got)
				}
				heal()
				if _, err := s.Publish("k", extA, Bytes(body)); err != nil {
					t.Fatalf("retry on a healed disk: %v", err)
				}
				assertClean(t, dir)
			}
			if got, err := s.Read("k", extA); err != nil || !bytes.Equal(got, body) {
				t.Fatalf("published entry does not read back (err %v)", err)
			}
			want := Census{Entries: before.Entries + 1, Bytes: before.Bytes + int64(len(body))}
			if got := s.Census(extA, extB); got != want {
				t.Errorf("census = %+v, want %+v", got, want)
			}
			if got := openStore(t, nil, dir).Census(extA, extB); got != want {
				t.Errorf("reopened census = %+v, want %+v", got, want)
			}
		})
	}
}

// TestDirSyncFailureWithdrawsReplacement: when the directory fsync fails
// on an overwrite, the old entry is already gone, so the census must
// drop it rather than keep counting bytes that are not there.
func TestDirSyncFailureWithdrawsReplacement(t *testing.T) {
	dir := t.TempDir()
	fs := &dirSyncFailFS{FS: OSFS{}}
	s := openStore(t, fs, dir)
	if _, err := s.Publish("k", extA, Bytes([]byte("old bytes"))); err != nil {
		t.Fatal(err)
	}
	fs.err = errors.New("injected")
	if _, err := s.Publish("k", extA, Bytes([]byte("new"))); err == nil {
		t.Fatal("publish survived a directory fsync failure")
	}
	if got := s.Census(extA); got != (Census{}) {
		t.Errorf("census = %+v, want empty", got)
	}
	if got := openStore(t, nil, dir).Census(extA); got != (Census{}) {
		t.Errorf("reopened census = %+v, want empty", got)
	}
}

// TestCensusQuarantineReopen is the store-level home of what the cache
// and catalog tests each used to check for themselves: the census
// follows publish, overwrite and quarantine per extension, a quarantined
// entry moves to corrupt/ under its own name and its key goes back to
// missing, and a reopened store counts exactly what the live one did.
func TestCensusQuarantineReopen(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, nil, dir)
	publish := func(key, ext string, n int) {
		t.Helper()
		size, err := s.Publish(key, ext, Bytes(bytes.Repeat([]byte{'x'}, n)))
		if err != nil || size != int64(n) {
			t.Fatalf("publish %s%s: size %d err %v", key, ext, size, err)
		}
	}
	publish("k1", extA, 100)
	publish("k2", extA, 50)
	publish("k1", extB, 7) // same key, other kind: a separate entry
	publish("k2", extA, 80)
	if got, want := s.Census(extA), (Census{2, 180}); got != want {
		t.Fatalf("census%s = %+v, want %+v", extA, got, want)
	}
	if got, want := s.Census(extB), (Census{1, 7}); got != want {
		t.Fatalf("census%s = %+v, want %+v", extB, got, want)
	}
	keys, err := s.Keys(extA)
	if err != nil || len(keys) != 2 || keys[0] != "k1" || keys[1] != "k2" {
		t.Fatalf("Keys(%s) = %v (%v)", extA, keys, err)
	}

	s.Quarantine("k1", extA)
	if _, err := s.Read("k1", extA); err == nil {
		t.Error("quarantined key still reads")
	}
	if got, err := os.ReadFile(filepath.Join(dir, "corrupt", "k1"+extA)); err != nil || len(got) != 100 {
		t.Errorf("evidence not preserved in corrupt/: %d bytes, err %v", len(got), err)
	}
	s.Quarantine("k1", extA) // now absent: a plain miss, not a second quarantine
	s.Quarantine("never-stored", extA)
	if s.Quarantined(extA) != 1 || s.Quarantined(extB) != 0 {
		t.Errorf("quarantined = %d/%d, want 1/0", s.Quarantined(extA), s.Quarantined(extB))
	}
	publish("k1", extA, 10) // a re-store heals the key
	live := s.Census(extA, extB)
	if want := (Census{3, 97}); live != want {
		t.Fatalf("census after quarantine + re-store = %+v, want %+v", live, want)
	}
	if got := openStore(t, nil, dir).Census(extA, extB); got != live {
		t.Errorf("reopened census %+v != live census %+v", got, live)
	}
	assertClean(t, dir)
}

// TestConcurrentPublishOneKey: racing publishers of one key leave one
// whole entry and a census that matches the directory.
func TestConcurrentPublishOneKey(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, nil, dir)
	bodies := [][]byte{bytes.Repeat([]byte{'a'}, 1000), bytes.Repeat([]byte{'b'}, 10)}
	var wg sync.WaitGroup
	for _, b := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := s.Publish("k", extA, Bytes(b)); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	got, err := s.Read("k", extA)
	if err != nil || (!bytes.Equal(got, bodies[0]) && !bytes.Equal(got, bodies[1])) {
		t.Fatalf("entry is neither publisher's body (%d bytes, err %v)", len(got), err)
	}
	if c, want := s.Census(extA), (Census{1, int64(len(got))}); c != want {
		t.Errorf("census = %+v, want %+v", c, want)
	}
	assertClean(t, dir)
}

// TestKeyRule: a key that is not a single file-name element — or an
// extension the store was not opened with — is refused before the
// filesystem is touched, by every entry point; short keys are fine.
func TestKeyRule(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "a", "store")
	victim := filepath.Join(root, "victim"+extA)
	if err := os.WriteFile(victim, []byte("not yours"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := openStore(t, nil, dir)
	for _, key := range []string{"", ".", "..", "../../victim", "sub/key", `sub\key`, "/abs", root + "/victim"} {
		if ValidKey(key) {
			t.Errorf("ValidKey(%q) = true", key)
		}
		if _, err := s.Read(key, extA); !errors.Is(err, ErrBadKey) {
			t.Errorf("Read(%q) = %v, want ErrBadKey", key, err)
		}
		if _, err := s.Publish(key, extA, Bytes([]byte("x"))); !errors.Is(err, ErrBadKey) {
			t.Errorf("Publish(%q) = %v, want ErrBadKey", key, err)
		}
		s.Quarantine(key, extA)
	}
	if _, err := s.Publish("k", ".other", Bytes([]byte("x"))); !errors.Is(err, ErrBadKey) {
		t.Errorf("Publish under an unknown extension = %v, want ErrBadKey", err)
	}
	if got, err := os.ReadFile(victim); err != nil || string(got) != "not yours" {
		t.Errorf("file outside the store was touched: %q, %v", got, err)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Errorf("refused keys left files behind: %v", ents)
	}
	if s.Failures() != 0 || s.Quarantined(extA) != 0 {
		t.Errorf("a refusal is not a failure: failures %d quarantined %d", s.Failures(), s.Quarantined(extA))
	}
	if _, err := s.Publish("abc", extA, Bytes([]byte("short key"))); err != nil {
		t.Errorf("3-byte key: %v", err)
	}
}
