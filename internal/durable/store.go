package durable

import (
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
)

// Store is one directory of <key><ext> entries. It knows nothing about
// what the bytes mean — codecs, magics and digests belong to its callers
// — and owns everything about where they live: key validation, reads,
// the single publish path, quarantine to corrupt/, listing, and a census
// (entries, bytes, quarantines) per extension. Safe for concurrent use,
// and for several processes sharing the directory (each keeps its own
// census; nothing is swept at open).
type Store struct {
	fs  FS
	dir string
	// kinds holds the counters per extension; the key set is fixed at Open.
	kinds map[string]*kind
	// ns serializes every move into or out of the published namespace
	// with its census update, so the census is exact even when two
	// publishers race on one key.
	ns       sync.Mutex
	failures atomic.Int64
}

// kind is the census of one extension. Writers hold Store.ns; readers
// load without it (a scrape never waits on a directory fsync).
type kind struct{ entries, bytes, quarantined atomic.Int64 }

// Census counts the published entries of one extension (or a sum of
// several); quarantined and temp files are excluded.
type Census struct{ Entries, Bytes int64 }

// ErrBadKey refuses a key that is not a single file-name element, or an
// extension the store was not opened with, before any filesystem access.
var ErrBadKey = errors.New("durable: key is not a single file-name element")

// Open opens (creating if needed) dir on fs — nil selects the real
// filesystem — and takes the census of the entries with the given
// extensions.
func Open(fs FS, dir string, exts ...string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("durable: empty directory")
	}
	if fs == nil {
		fs = OSFS{}
	}
	s := &Store{fs: fs, dir: dir, kinds: make(map[string]*kind, len(exts))}
	for _, ext := range exts {
		s.kinds[ext] = new(kind)
	}
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ents, err := fs.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range ents {
		k := s.kinds[filepath.Ext(e.Name())]
		if k == nil || e.IsDir() {
			continue
		}
		if info, err := e.Info(); err == nil {
			k.entries.Add(1)
			k.bytes.Add(info.Size())
		}
	}
	return s, nil
}

// Dir reports the store's directory.
func (s *Store) Dir() string { return s.dir }

// ValidKey is the key rule: a non-empty single file-name element. It is
// the traversal guard for every caller — a key that could name anything
// outside the directory never reaches the filesystem.
func ValidKey(key string) bool {
	return key != "" && key != "." && !strings.ContainsAny(key, `/\`) && filepath.IsLocal(key)
}

// entry validates (key, ext) and returns the entry's file name and
// counters.
func (s *Store) entry(key, ext string) (string, *kind, error) {
	k := s.kinds[ext]
	if k == nil || !ValidKey(key) {
		return "", nil, fmt.Errorf("%w: %q%s", ErrBadKey, key, ext)
	}
	return key + ext, k, nil
}

// open opens a file of the directory for reading and reports its size.
func (s *Store) open(name string) (File, int64, error) {
	f, err := s.fs.OpenFile(filepath.Join(s.dir, name), os.O_RDONLY, 0)
	if err != nil {
		return nil, 0, err
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err == nil {
		_, err = f.Seek(0, io.SeekStart)
	}
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, size, nil
}

// size reports the size of a file of the directory, false when absent.
func (s *Store) size(name string) (int64, bool) {
	f, n, err := s.open(name)
	if err != nil {
		return 0, false
	}
	f.Close()
	return n, true
}

// Read returns an entry's bytes.
func (s *Store) Read(key, ext string) ([]byte, error) {
	name, _, err := s.entry(key, ext)
	if err != nil {
		return nil, err
	}
	f, size, err := s.open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	body := make([]byte, size)
	n, err := io.ReadFull(f, body)
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		err = nil // shrank under us: the caller's verification decides
	}
	return body[:n], err
}

// Bytes is the fill callback that publishes b as is.
func Bytes(b []byte) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := w.Write(b)
		return err
	}
}

// Publish is the one write path: fill streams the entry into a temp
// file, which is fsync'd, renamed to <key><ext>, and sealed with a
// directory fsync before the census counts it — so a crash or a failing
// disk can lose the entry but never publish a torn one, and a name in
// the directory means its publish completed. Any failure leaves no temp
// file, no entry and an unchanged census, and counts in Failures. It
// reports the published size.
func (s *Store) Publish(key, ext string, fill func(w io.Writer) error) (size int64, err error) {
	name, k, err := s.entry(key, ext)
	if err != nil {
		return 0, err
	}
	defer func() {
		if err != nil {
			s.failures.Add(1)
		}
	}()
	var tmp string
	var f File
	for {
		// No key in the name: keys are the caller's and may be short.
		tmp = fmt.Sprintf("tmp-%016x", rand.Uint64())
		f, err = s.fs.OpenFile(filepath.Join(s.dir, tmp), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o600)
		if !errors.Is(err, os.ErrExist) {
			break
		}
	}
	if err != nil {
		return 0, err
	}
	defer s.fs.Remove(filepath.Join(s.dir, tmp)) // gone already once renamed
	if err = fill(f); err == nil {
		// Sync file bytes before the rename publishes the name: rename is
		// atomic, but without the fsync a crash can publish a name whose
		// bytes never reached the platter.
		if err = f.Sync(); err == nil {
			size, err = f.Seek(0, io.SeekCurrent)
		}
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, err
	}

	s.ns.Lock()
	defer s.ns.Unlock()
	old, existed := s.size(name)
	dst := filepath.Join(s.dir, name)
	if err = s.fs.Rename(filepath.Join(s.dir, tmp), dst); err != nil {
		return 0, err
	}
	if !existed {
		k.entries.Add(1)
	}
	k.bytes.Add(size - old)
	if err = s.fs.SyncDir(s.dir); err != nil {
		// The rename is not known durable: withdraw the name rather than
		// serve an entry a power cut may take back.
		if s.fs.Remove(dst) == nil {
			k.entries.Add(-1)
			k.bytes.Add(-size)
		}
		return 0, err
	}
	return size, nil
}

// Quarantine moves an entry its caller could not decode into corrupt/
// under its own name: the evidence survives, the key goes back to
// missing, and the census and the quarantine counter record it. An
// absent entry or a failing move degrades to leaving things as they are.
func (s *Store) Quarantine(key, ext string) {
	name, k, err := s.entry(key, ext)
	if err != nil {
		return
	}
	s.ns.Lock()
	defer s.ns.Unlock()
	size, ok := s.size(name)
	cdir := filepath.Join(s.dir, "corrupt")
	if !ok || s.fs.MkdirAll(cdir, 0o755) != nil || s.fs.Rename(filepath.Join(s.dir, name), filepath.Join(cdir, name)) != nil {
		return
	}
	k.quarantined.Add(1)
	k.entries.Add(-1)
	k.bytes.Add(-size)
}

// Keys lists the keys published under ext, in directory order.
func (s *Store) Keys(ext string) ([]string, error) {
	ents, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var keys []string
	for _, e := range ents {
		if name := e.Name(); !e.IsDir() && filepath.Ext(name) == ext {
			keys = append(keys, strings.TrimSuffix(name, ext))
		}
	}
	return keys, nil
}

// Census reports the published entries summed over exts.
func (s *Store) Census(exts ...string) (c Census) {
	for _, ext := range exts {
		if k := s.kinds[ext]; k != nil {
			c.Entries += k.entries.Load()
			c.Bytes += k.bytes.Load()
		}
	}
	return c
}

// Quarantined counts the entries of ext, an extension the store was
// opened with, moved to corrupt/.
func (s *Store) Quarantined(ext string) int64 { return s.kinds[ext].quarantined.Load() }

// Failures counts publishes that did not land; a refused key is not one.
func (s *Store) Failures() int64 { return s.failures.Load() }
