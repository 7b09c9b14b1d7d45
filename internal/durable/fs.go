// Package durable is the one place fxnet writes bytes it expects to
// find again: the filesystem seam (FS, with the real OSFS and the
// fault-injecting FaultFS) and, on top of it, Store — a directory of
// <key><ext> entries published atomically and durably. The journal
// appends through the seam; the run cache, the spectrum cache and the
// model catalog publish through the Store (DESIGN.md §11, "Durable
// store").
package durable

import (
	"errors"
	"io"
	"os"
	"sync"
	"time"
)

// FS is the filesystem seam. Production code uses OSFS; the chaos tests
// substitute implementations that run slow, fill up, or fail to sync, so
// crash-safety behavior under degraded disks is testable in-process
// without privileged fault injection.
type FS interface {
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	ReadDir(dir string) ([]os.DirEntry, error)
	MkdirAll(dir string, perm os.FileMode) error
	// SyncDir fsyncs a directory so a freshly created or renamed file's
	// directory entry is durable.
	SyncDir(dir string) error
}

// File is the subset of *os.File the journal and the store need.
type File interface {
	io.ReadWriteSeeker
	io.Closer
	Sync() error
	Truncate(size int64) error
}

// OSFS is the real filesystem.
type OSFS struct{}

func (OSFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

func (OSFS) Rename(oldpath, newpath string) error        { return os.Rename(oldpath, newpath) }
func (OSFS) Remove(name string) error                    { return os.Remove(name) }
func (OSFS) ReadDir(dir string) ([]os.DirEntry, error)   { return os.ReadDir(dir) }
func (OSFS) MkdirAll(dir string, perm os.FileMode) error { return os.MkdirAll(dir, perm) }

func (OSFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	// Some platforms refuse fsync on directories; that is a degraded
	// environment, not a programming error, so tolerate it.
	if err := d.Sync(); err != nil && !errors.Is(err, os.ErrInvalid) {
		return err
	}
	return nil
}

// FaultFS wraps an FS with injectable failures: a write-byte budget
// models a disk filling up mid-record, a per-write delay models a
// saturated device, and SyncErr makes every file fsync fail. Namespace
// operations (rename, remove, mkdir, readdir) and directory fsyncs are
// the embedded FS's: a full or slow disk still renames, and every
// durable write fsyncs its file before its directory, so a failing file
// fsync stops it first. WriteBudget -1 with the other fields zero
// injects nothing.
type FaultFS struct {
	FS
	// WriteBudget is the number of bytes writable, across every file,
	// before ErrDiskFull; negative means unlimited.
	WriteBudget int64
	// WriteDelay stalls every write, modeling a slow disk.
	WriteDelay time.Duration
	// SyncErr, when non-nil, is returned by every file Sync.
	SyncErr error

	mu      sync.Mutex
	written int64
}

// ErrDiskFull is the injected out-of-space error.
var ErrDiskFull = errors.New("durable: injected disk full")

func (f *FaultFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	base, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: base, fs: f}, nil
}

// faultFile applies the parent FaultFS's failure policy to one file.
type faultFile struct {
	File
	fs *FaultFS
}

// Write honors the delay and byte budget. A short write past the budget
// is exactly what a full disk produces: part of the record lands, the
// rest does not, and recovery must treat the tail as torn.
func (f *faultFile) Write(p []byte) (int, error) {
	if f.fs.WriteDelay > 0 {
		time.Sleep(f.fs.WriteDelay)
	}
	f.fs.mu.Lock()
	full := false
	if budget := f.fs.WriteBudget; budget >= 0 && int64(len(p)) > budget-f.fs.written {
		p, full = p[:max(budget-f.fs.written, 0)], true
	}
	f.fs.written += int64(len(p))
	f.fs.mu.Unlock()
	n, err := f.File.Write(p)
	if err == nil && full {
		err = ErrDiskFull
	}
	return n, err
}

func (f *faultFile) Sync() error {
	if f.fs.SyncErr != nil {
		return f.fs.SyncErr
	}
	return f.File.Sync()
}
