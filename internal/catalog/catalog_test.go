package catalog

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"fxnet/internal/durable"
	"fxnet/internal/fx"
	"fxnet/internal/model"
	"fxnet/internal/qos"
)

func openTestCatalog(t *testing.T) *Catalog {
	t.Helper()
	c, err := Open(filepath.Join(t.TempDir(), "models"))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPutGetRoundTrip(t *testing.T) {
	c := openTestCatalog(t)
	e := sampleEntry()
	if err := c.Put(e); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(e.Key)
	if !ok {
		t.Fatal("Get missed a stored entry")
	}
	if !entriesEqual(e, got) {
		t.Fatal("stored entry round-trip mismatch")
	}
	if c.Hits() == 0 {
		t.Error("hit counter not incremented")
	}

	// A fresh catalog over the same directory must load from disk.
	c2, err := Open(c.Dir())
	if err != nil {
		t.Fatal(err)
	}
	got2, ok := c2.Get(e.Key)
	if !ok || !entriesEqual(e, got2) {
		t.Fatal("disk reload mismatch")
	}
}

func TestGetMiss(t *testing.T) {
	c := openTestCatalog(t)
	if _, ok := c.Get("nope"); ok {
		t.Fatal("Get hit on an empty catalog")
	}
	if c.Misses() != 1 {
		t.Errorf("misses = %d, want 1", c.Misses())
	}
}

func TestCorruptEntryQuarantined(t *testing.T) {
	c := openTestCatalog(t)
	e := sampleEntry()
	if err := c.Put(e); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(c.Dir(), e.Key+ext)
	body, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	body[len(body)/2] ^= 0x01
	if err := os.WriteFile(path, body, 0o644); err != nil {
		t.Fatal(err)
	}

	c2, err := Open(c.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Get(e.Key); ok {
		t.Fatal("corrupt entry served")
	}
	if c2.Quarantined() != 1 {
		t.Errorf("quarantined = %d, want 1", c2.Quarantined())
	}
	if _, err := os.Stat(filepath.Join(c.Dir(), "corrupt", e.Key+ext)); err != nil {
		t.Errorf("quarantined file missing: %v", err)
	}
	// The key must now be a plain miss, ready for a refit.
	if _, ok := c2.Get(e.Key); ok {
		t.Fatal("quarantined key still hitting")
	}
}

func TestMisfiledEntryRejected(t *testing.T) {
	c := openTestCatalog(t)
	e := sampleEntry()
	// File a valid entry under the wrong key.
	if err := os.WriteFile(filepath.Join(c.Dir(), "wrongkey"+ext), Encode(e), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("wrongkey"); ok {
		t.Fatal("entry served under a key that is not its own")
	}
	if c.Quarantined() != 1 {
		t.Errorf("quarantined = %d, want 1", c.Quarantined())
	}
}

func TestPutOverwriteAndList(t *testing.T) {
	c := openTestCatalog(t)
	a := sampleEntry()
	b := sampleEntry()
	b.Key = "ffff23def4567890abc123def4567890abc123def4567890abc123def4567890"
	b.Program = "sor"
	b.P = 8
	for _, e := range []*Entry{a, b} {
		if err := c.Put(e); err != nil {
			t.Fatal(err)
		}
	}
	// Overwrite a with a different spike budget.
	a2 := sampleEntry()
	a2.Spikes = 16
	if err := c.Put(a2); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(a.Key)
	if !ok || got.Spikes != 16 {
		t.Fatalf("overwrite not visible: %+v", got)
	}

	list, err := c.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 {
		t.Fatalf("List returned %d entries, want 2", len(list))
	}
	// Sorted by (Program, P, Key): 2dfft before sor.
	if list[0].Program != "2dfft" || list[1].Program != "sor" {
		t.Errorf("List order: %s, %s", list[0].Program, list[1].Program)
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
}

// TestCatalogReadsParentLayout: a models/ directory as the
// pre-durable.Store code left it — an entry written straight under
// <key>.fxmodel with the (unchanged) codec, an orphaned old-style temp
// file — is counted, served and never quarantined.
func TestCatalogReadsParentLayout(t *testing.T) {
	dir := t.TempDir()
	e := sampleEntry()
	body := Encode(e)
	if err := os.WriteFile(filepath.Join(dir, e.Key+".fxmodel"), body, 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "tmp-"+e.Key[:16]+"-42"), body[:9], 0o600); err != nil {
		t.Fatal(err)
	}
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 1 || c.Bytes() != int64(len(body)) {
		t.Errorf("census = %d entries / %d bytes, want 1 / %d", c.Len(), c.Bytes(), len(body))
	}
	got, ok := c.Get(e.Key)
	if !ok || !entriesEqual(e, got) {
		t.Fatal("parent-layout entry not served")
	}
	if list, err := c.List(); err != nil || len(list) != 1 {
		t.Errorf("List = %d entries (%v), want 1", len(list), err)
	}
	if c.Quarantined() != 0 || c.Misses() != 0 {
		t.Errorf("quarantined %d misses %d, want 0 / 0", c.Quarantined(), c.Misses())
	}
}

// TestPutOnFullDisk: a failed Put is an error and a counted store
// failure, publishes nothing — not to disk, not to the in-memory map —
// and a Put after the disk heals lands.
func TestPutOnFullDisk(t *testing.T) {
	ffs := &durable.FaultFS{FS: durable.OSFS{}, WriteBudget: 10}
	c, err := OpenFS(ffs, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e := sampleEntry()
	if err := c.Put(e); !errors.Is(err, durable.ErrDiskFull) {
		t.Fatalf("Put on a full disk: %v, want ErrDiskFull", err)
	}
	if _, ok := c.Get(e.Key); ok {
		t.Error("entry that never reached the disk is served")
	}
	if c.StoreFailures() != 1 || c.Len() != 0 || c.Bytes() != 0 {
		t.Errorf("store failures %d, census %d/%d; want 1, 0/0", c.StoreFailures(), c.Len(), c.Bytes())
	}
	ffs.WriteBudget = -1
	if err := c.Put(e); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(e.Key); !ok || c.Len() != 1 || c.Bytes() != int64(len(Encode(e))) {
		t.Errorf("Put after heal: hit %v, census %d/%d", ok, c.Len(), c.Bytes())
	}
	if err := c.Put(&Entry{}); err == nil || c.StoreFailures() != 1 {
		t.Errorf("keyless entry: err %v, store failures %d; want a refusal that is not a disk failure", err, c.StoreFailures())
	}
}

func TestPutDeterministicBytes(t *testing.T) {
	c1 := openTestCatalog(t)
	c2 := openTestCatalog(t)
	e := sampleEntry()
	if err := c1.Put(e); err != nil {
		t.Fatal(err)
	}
	if err := c2.Put(e); err != nil {
		t.Fatal(err)
	}
	b1, err := os.ReadFile(filepath.Join(c1.Dir(), e.Key+ext))
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(filepath.Join(c2.Dir(), e.Key+ext))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("two Puts of one entry produced different bytes")
	}
}

// admissionEntry builds an entry with the bandwidth shape (mean, peak,
// fundamental) the admission derivation consumes.
func admissionEntry(program string, p int, meanKBps, peakKBps, f0 float64) *Entry {
	return &Entry{
		Key:              program + "-" + string(rune('0'+p)),
		Program:          program,
		P:                p,
		Spikes:           8,
		Model:            model.BandwidthModel{DC: meanKBps, Components: []model.Component{{Freq: f0, Coeff: complex(meanKBps/4, 0)}}},
		SeriesDT:         0.01,
		SeriesN:          1000,
		MeasuredMeanKBps: meanKBps,
		ModelMeanKBps:    meanKBps,
		FundamentalHz:    f0,
		PeakKBps:         peakKBps,
	}
}

func TestAdmissionPoint(t *testing.T) {
	// sor: neighbor pattern, P senders. 100 KB/s mean, 400 KB/s peak,
	// 2 Hz bursts → tbi 0.5 s, 50 KB per interval, 12.5 KB/conn on P=4.
	e := admissionEntry("sor", 4, 100, 400, 2)
	pt, err := e.AdmissionPoint()
	if err != nil {
		t.Fatal(err)
	}
	if pt.P != 4 {
		t.Errorf("P = %d, want 4", pt.P)
	}
	tbi := 0.5
	totalBytes := 100e3 * tbi
	wantBurst := totalBytes / 4 // neighbor: P concurrent senders
	if !approx(pt.BurstBytes, wantBurst, 1e-9) {
		t.Errorf("BurstBytes = %g, want %g", pt.BurstBytes, wantBurst)
	}
	wantLocal := tbi - totalBytes/400e3
	if !approx(pt.LocalSeconds, wantLocal, 1e-9) {
		t.Errorf("LocalSeconds = %g, want %g", pt.LocalSeconds, wantLocal)
	}

	// Degenerate: no spike → no admission point.
	flat := admissionEntry("sor", 4, 100, 100, 0)
	if _, err := flat.AdmissionPoint(); err == nil {
		t.Error("DC-only entry produced an admission point")
	}
	// Zero traffic → no admission point.
	idle := admissionEntry("sor", 4, 0, 0, 2)
	if _, err := idle.AdmissionPoint(); err == nil {
		t.Error("zero-traffic entry produced an admission point")
	}
}

func TestCatalogProgramNegotiate(t *testing.T) {
	c := openTestCatalog(t)
	// Two measured P for sor; P=8 has the shorter implied burst interval
	// (higher fundamental), so an idle network should pick it.
	if err := c.Put(admissionEntry("sor", 4, 100, 400, 2)); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(admissionEntry("sor", 8, 120, 600, 5)); err != nil {
		t.Fatal(err)
	}
	prog, err := c.Program("sor")
	if err != nil {
		t.Fatal(err)
	}
	if prog.Pattern != fx.Neighbor {
		t.Errorf("pattern = %v, want neighbor", prog.Pattern)
	}
	net := qos.NewNetwork(2e6)
	off, err := net.Negotiate(prog, 32)
	if err != nil {
		t.Fatal(err)
	}
	if off.P != 4 && off.P != 8 {
		t.Fatalf("negotiated P=%d is not a measured point", off.P)
	}
	// An unmeasured P must be rejected, not priced.
	if _, err := net.Evaluate(prog, 6); err == nil {
		t.Error("Evaluate priced an unmeasured P")
	}

	if _, err := c.Program("hist"); err == nil {
		t.Error("Program succeeded for a program with no entries")
	}
	if _, err := c.Program("nosuch"); err == nil {
		t.Error("Program succeeded for an unknown program")
	}
}

func approx(got, want, tol float64) bool {
	d := got - want
	if d < 0 {
		d = -d
	}
	return d <= tol
}
