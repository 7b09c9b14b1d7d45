package journal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"fxnet/internal/durable"
)

// openCollect opens path and returns the journal plus the replayed
// records.
func openCollect(t *testing.T, path string, opts Options) (*Journal, []Record, ReplayStats) {
	t.Helper()
	var recs []Record
	j, st, err := Open(path, opts, func(r Record) error {
		body := append([]byte(nil), r.Body...)
		recs = append(recs, Record{Op: r.Op, Body: body})
		return nil
	})
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	return j, recs, st
}

func TestAppendReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	j, recs, st := openCollect(t, path, Options{})
	if len(recs) != 0 || st.Records != 0 || st.TruncatedBytes != 0 {
		t.Fatalf("fresh journal replayed %d records, stats %+v", len(recs), st)
	}
	want := []Record{
		{OpSubmitted, []byte(`{"id":"r-1"}`)},
		{OpGrant, []byte(`{"id":7}`)},
		{OpTerminal, []byte(`{"id":"r-1","state":"done"}`)},
		{OpRelease, nil},
	}
	for _, r := range want {
		if err := j.Append(r.Op, r.Body); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	j2, got, st := openCollect(t, path, Options{})
	defer j2.Close()
	if st.Records != len(want) || st.TruncatedBytes != 0 {
		t.Fatalf("replay stats %+v, want %d clean records", st, len(want))
	}
	for i, r := range want {
		if got[i].Op != r.Op || !bytes.Equal(got[i].Body, r.Body) {
			t.Errorf("record %d = {%v %q}, want {%v %q}", i, got[i].Op, got[i].Body, r.Op, r.Body)
		}
	}

	// The reopened journal appends cleanly after the replayed tail.
	if err := j2.Append(OpSubmitted, []byte("later")); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	j3, got, _ := openCollect(t, path, Options{})
	j3.Close()
	if len(got) != len(want)+1 || string(got[len(got)-1].Body) != "later" {
		t.Fatalf("after reopen-append: %d records", len(got))
	}
}

func TestTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	j, _, _ := openCollect(t, path, Options{})
	for i := 0; i < 3; i++ {
		if err := j.Append(OpSubmitted, []byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Append(OpTerminal, []byte("the-torn-one")); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Tear the final record: chop a few bytes off the file, as a crash
	// mid-write (or mid-flush) would.
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-5); err != nil {
		t.Fatal(err)
	}

	j2, recs, st := openCollect(t, path, Options{})
	if len(recs) != 3 {
		t.Fatalf("recovered %d records, want 3 (torn tail dropped)", len(recs))
	}
	if st.TruncatedBytes == 0 || st.TruncateReason == "" {
		t.Fatalf("truncation not reported: %+v", st)
	}
	// The log must be appendable and clean after recovery.
	if err := j2.Append(OpSubmitted, []byte("after-recovery")); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	j3, recs, st := openCollect(t, path, Options{})
	j3.Close()
	if len(recs) != 4 || st.TruncatedBytes != 0 {
		t.Fatalf("after recovery+append: %d records, stats %+v", len(recs), st)
	}
	if string(recs[3].Body) != "after-recovery" {
		t.Errorf("tail record body = %q", recs[3].Body)
	}
}

func TestBitFlippedTailDropped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	j, _, _ := openCollect(t, path, Options{})
	if err := j.Append(OpSubmitted, []byte("good")); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(OpSubmitted, []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Flip one bit inside the last record's body.
	body, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	body[len(body)-2] ^= 0x10
	if err := os.WriteFile(path, body, 0o644); err != nil {
		t.Fatal(err)
	}

	j2, recs, st := openCollect(t, path, Options{})
	j2.Close()
	if len(recs) != 1 || string(recs[0].Body) != "good" {
		t.Fatalf("recovered %v, want only the intact record", recs)
	}
	if st.TruncateReason == "" {
		t.Fatal("checksum drop not reported")
	}
}

func TestGarbageFileRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	if err := os.WriteFile(path, []byte("this is not a journal at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(path, Options{}, nil); err == nil {
		t.Fatal("opened a non-journal file without error")
	}
}

func TestFullDiskAppendFailsSticky(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	// Budget: the header plus one full record, then the disk "fills" in
	// the middle of the second append.
	rec := []byte("0123456789abcdef")
	frame := int64(len(encodeFrame(OpSubmitted, rec)))
	ffs := &durable.FaultFS{FS: durable.OSFS{}, WriteBudget: int64(len(magic)) + frame + frame/2}
	j, _, err := Open(path, Options{FS: ffs}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(OpSubmitted, rec); err != nil {
		t.Fatalf("first append within budget: %v", err)
	}
	if err := j.Append(OpSubmitted, rec); !errors.Is(err, durable.ErrDiskFull) {
		t.Fatalf("append on full disk: %v, want durable.ErrDiskFull", err)
	}
	// The journal is now sticky-broken: even a tiny append refuses.
	if err := j.Append(OpTerminal, nil); err == nil {
		t.Fatal("append after failure succeeded; tail state is unknown")
	}
	if j.Err() == nil {
		t.Fatal("Err() nil after failed append")
	}
	j.Close()

	// Recovery drops the half-written record and keeps the good one.
	j2, recs, st := openCollect(t, path, Options{})
	j2.Close()
	if len(recs) != 1 || st.TruncatedBytes == 0 {
		t.Fatalf("recovered %d records (stats %+v), want 1 + truncation", len(recs), st)
	}
}

func TestSyncFailureIsAppendFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	j, _, err := Open(path, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	ffs := &durable.FaultFS{FS: durable.OSFS{}, WriteBudget: -1, SyncErr: errors.New("injected sync failure")}
	j2, _, err := Open(path, Options{FS: ffs}, nil)
	if err == nil {
		// Header already exists so Open does not sync; the append must
		// still surface the sync failure.
		err = j2.Append(OpSubmitted, []byte("x"))
		j2.Close()
	}
	if err == nil {
		t.Fatal("sync failure swallowed")
	}
}

func TestSlowDiskStillCorrect(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	ffs := &durable.FaultFS{FS: durable.OSFS{}, WriteBudget: -1, WriteDelay: 2 * time.Millisecond}
	j, _, err := Open(path, Options{FS: ffs}, nil)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for i := 0; i < 5; i++ {
		if err := j.Append(OpSubmitted, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if time.Since(start) < 10*time.Millisecond {
		t.Fatal("write delay not applied")
	}
	j.Close()
	j2, recs, st := openCollect(t, path, Options{})
	j2.Close()
	if len(recs) != 5 || st.TruncatedBytes != 0 {
		t.Fatalf("slow disk corrupted the log: %d records, %+v", len(recs), st)
	}
}

func TestConcurrentAppendsAllSurvive(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	j, _, err := Open(path, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	errc := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			errc <- j.Append(OpSubmitted, []byte(fmt.Sprintf("c-%02d", i)))
		}(i)
	}
	for i := 0; i < n; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	j2, recs, st := openCollect(t, path, Options{})
	j2.Close()
	if len(recs) != n || st.TruncatedBytes != 0 {
		t.Fatalf("%d records survived (stats %+v), want %d", len(recs), st, n)
	}
}
