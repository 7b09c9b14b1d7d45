// Package journal is fxnetd's durability layer: an append-only,
// checksummed, fsync'd write-ahead log of job lifecycle records and QoS
// admission grants, replayed on boot so a crashed node comes back
// without losing acknowledged work.
//
// The format is deliberately dumb. A file starts with an 8-byte magic
// and then holds framed records:
//
//	len(4, little-endian) | crc32c(4) | op(1) body(len-1)
//
// The checksum covers the payload (op + body). Recovery scans forward
// and stops at the first frame that fails to parse — a short tail (the
// process died mid-write or the disk filled), a checksum mismatch (a
// torn or bit-flipped sector), or an absurd length. Everything before
// that point is trusted; the file is truncated to it, so the bad tail
// is dropped rather than fatal and the next append extends a clean log.
//
// Appends buffer the whole frame into a single Write followed by an
// fsync, so a crash can only produce a torn tail record, never an
// interleaved or half-checksummed middle record.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"fxnet/internal/durable"
)

// Op tags a record with its lifecycle event.
type Op uint8

const (
	// OpSubmitted records a run submission acknowledged to a client.
	OpSubmitted Op = iota + 1
	// OpTerminal records a job reaching done/failed/cancelled.
	OpTerminal
	// OpGrant records a committed QoS admission.
	OpGrant
	// OpRelease records a released QoS admission.
	OpRelease
)

func (op Op) String() string {
	switch op {
	case OpSubmitted:
		return "submitted"
	case OpTerminal:
		return "terminal"
	case OpGrant:
		return "grant"
	case OpRelease:
		return "release"
	default:
		return fmt.Sprintf("op(%d)", uint8(op))
	}
}

// Record is one journal entry: an op tag and an opaque body (the
// server's JSON payloads; the journal does not interpret them).
type Record struct {
	Op   Op
	Body []byte
}

const (
	magic = "FXWAL001"
	// maxRecord bounds a single record so a corrupt length field cannot
	// drive a giant allocation during replay.
	maxRecord = 16 << 20
	frameHead = 8 // len(4) + crc(4)
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Options configures a journal.
type Options struct {
	// FS is the filesystem seam (durable.FaultFS injects slow, full and
	// unsyncable disks); nil selects the real filesystem.
	FS durable.FS
}

// Journal is an open write-ahead log. Append is safe for concurrent use.
type Journal struct {
	path string
	fs   durable.FS

	mu     sync.Mutex
	f      durable.File
	broken error // sticky failure: the log's tail state is unknown
}

// ReplayStats describes what Open found in an existing log.
type ReplayStats struct {
	// Records is the number of valid records replayed.
	Records int
	// TruncatedBytes is how many trailing bytes were dropped as torn or
	// corrupt; 0 for a clean log.
	TruncatedBytes int64
	// TruncateReason explains the drop when TruncatedBytes > 0.
	TruncateReason string
}

// Open opens (creating if absent) the journal at path, replays every
// valid record into fn, truncates any torn or corrupt tail, and leaves
// the file positioned for appends. fn may be nil to skip replay
// delivery (the records are still validated). A non-nil error from fn
// aborts the open.
func Open(path string, opts Options, fn func(Record) error) (*Journal, ReplayStats, error) {
	fs := opts.FS
	if fs == nil {
		fs = durable.OSFS{}
	}
	var st ReplayStats
	if err := fs.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, st, fmt.Errorf("journal: %w", err)
	}
	f, err := fs.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, st, fmt.Errorf("journal: %w", err)
	}
	j := &Journal{path: path, fs: fs, f: f}
	if err := j.replay(fn, &st); err != nil {
		f.Close()
		return nil, st, err
	}
	return j, st, nil
}

// replay validates the header and every record, delivering them to fn,
// then truncates the file to the last good offset and seeks to it.
func (j *Journal) replay(fn func(Record) error, st *ReplayStats) error {
	size, err := j.f.Seek(0, io.SeekEnd)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if _, err := j.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if size == 0 {
		// Fresh log: write the header now so a zero-record journal is
		// still recognizably ours.
		if _, err := j.f.Write([]byte(magic)); err != nil {
			return fmt.Errorf("journal: write header: %w", err)
		}
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("journal: sync header: %w", err)
		}
		if err := j.fs.SyncDir(filepath.Dir(j.path)); err != nil {
			return fmt.Errorf("journal: sync dir: %w", err)
		}
		return nil
	}
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(j.f, head); err != nil || string(head) != magic {
		return fmt.Errorf("journal: %s is not a journal (bad magic)", j.path)
	}

	good := int64(len(magic))
	reason := ""
	for {
		rec, err := readRecord(j.f)
		if err == io.EOF {
			break
		}
		if err != nil {
			reason = err.Error()
			break
		}
		if fn != nil {
			if err := fn(rec); err != nil {
				return fmt.Errorf("journal: replay: %w", err)
			}
		}
		st.Records++
		good += int64(frameHead + 1 + len(rec.Body))
	}
	if good < size {
		st.TruncatedBytes = size - good
		st.TruncateReason = reason
		if err := j.f.Truncate(good); err != nil {
			return fmt.Errorf("journal: truncate torn tail: %w", err)
		}
	}
	if _, err := j.f.Seek(good, io.SeekStart); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}

// readRecord parses one frame. io.EOF means a clean end; any other
// error means the tail from this frame on is untrustworthy.
func readRecord(r io.Reader) (Record, error) {
	var head [frameHead]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		if err == io.EOF {
			return Record{}, io.EOF
		}
		return Record{}, fmt.Errorf("torn frame header: %v", err)
	}
	n := binary.LittleEndian.Uint32(head[:4])
	sum := binary.LittleEndian.Uint32(head[4:])
	if n == 0 || n > maxRecord {
		return Record{}, fmt.Errorf("implausible record length %d", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return Record{}, fmt.Errorf("torn record body: %v", err)
	}
	if crc32.Checksum(payload, castagnoli) != sum {
		return Record{}, errors.New("record checksum mismatch")
	}
	return Record{Op: Op(payload[0]), Body: payload[1:]}, nil
}

// Path reports the journal's file path.
func (j *Journal) Path() string { return j.path }

// Append frames, writes, and fsyncs one record. On failure the journal
// goes sticky-broken: the on-disk tail state is unknown, so until the
// process restarts (and Open re-truncates), further appends refuse
// rather than risk interleaving after a partial frame.
func (j *Journal) Append(op Op, body []byte) error {
	frame := encodeFrame(op, body)
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.broken != nil {
		return fmt.Errorf("journal: unavailable after earlier failure: %w", j.broken)
	}
	if _, err := j.f.Write(frame); err != nil {
		j.broken = err
		return fmt.Errorf("journal: append: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		j.broken = err
		return fmt.Errorf("journal: append sync: %w", err)
	}
	return nil
}

// encodeFrame renders one record as a single contiguous frame.
func encodeFrame(op Op, body []byte) []byte {
	frame := make([]byte, frameHead+1+len(body))
	payload := frame[frameHead:]
	payload[0] = byte(op)
	copy(payload[1:], body)
	binary.LittleEndian.PutUint32(frame[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, castagnoli))
	return frame
}

// Err reports the sticky append failure, nil while the journal is
// healthy.
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.broken
}

// Close releases the file handle. A closed journal refuses appends.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.broken == nil {
		j.broken = errors.New("journal closed")
	}
	return j.f.Close()
}
