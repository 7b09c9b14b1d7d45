package qos

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"fxnet/internal/fx"
)

// AmdahlLocal builds an l() for a synthetic program with W total
// operations per phase at the given per-processor rate and a serial
// fraction: the classic shape that makes the processor-count tension of
// §7.3 concrete.
func AmdahlLocal(totalOps, opsPerSec, serialFrac float64) func(P int) float64 {
	return func(P int) float64 {
		if P < 1 {
			P = 1
		}
		par := totalOps * (1 - serialFrac) / float64(P)
		ser := totalOps * serialFrac
		return (par + ser) / opsPerSec
	}
}

// fftLike is a 2DFFT-style program: parallel compute, all-to-all bursts
// shrinking with P².
func fftLike() Program {
	return Program{
		Name:    "fft",
		Local:   AmdahlLocal(2e7, 1e7, 0),
		Burst:   BlockBurst(2e6),
		Pattern: fx.AllToAll,
	}
}

func TestConcurrentSenders(t *testing.T) {
	cases := []struct {
		c    fx.Pattern
		P    int
		want int
	}{
		{fx.Neighbor, 4, 4}, {fx.AllToAll, 4, 4}, {fx.Partition, 4, 2},
		{fx.Broadcast, 4, 1}, {fx.Tree, 4, 2}, {fx.AllToAll, 1, 0},
	}
	for _, c := range cases {
		if got := ConcurrentSenders(c.c, c.P); got != c.want {
			t.Errorf("ConcurrentSenders(%v, %d) = %d, want %d", c.c, c.P, got, c.want)
		}
	}
}

func TestBurstInterval(t *testing.T) {
	p := fftLike()
	// P=4: local = 2e7/4/1e7 = 0.5 s; burst = 2e6/16 = 125000 B.
	got := BurstInterval(p, 4, 125000)
	if math.Abs(got-1.5) > 1e-9 {
		t.Errorf("tbi = %v, want 1.5", got)
	}
	if !math.IsInf(BurstInterval(p, 4, 0), 1) {
		t.Error("zero bandwidth must give infinite tbi")
	}
}

func TestEvaluateCapacitySplit(t *testing.T) {
	n := NewNetwork(1.25e6)
	off, err := n.Evaluate(fftLike(), 4)
	if err != nil {
		t.Fatal(err)
	}
	// All-to-all on 4 procs: 4 concurrent senders → B = capacity/4.
	if math.Abs(off.BurstBandwidth-1.25e6/4) > 1 {
		t.Errorf("B = %v", off.BurstBandwidth)
	}
	if off.MeanBandwidth > n.CapacityBps+1 {
		t.Errorf("mean demand %v exceeds capacity", off.MeanBandwidth)
	}
	if off.BurstInterval <= off.BurstSeconds {
		t.Error("tbi must exceed the pure burst time")
	}
}

func TestNegotiatePicksBestP(t *testing.T) {
	n := NewNetwork(1.25e6)
	prog := fftLike()
	off, err := n.Negotiate(prog, 16)
	if err != nil {
		t.Fatal(err)
	}
	// Exhaustive check: no other P beats the offer.
	for P := 2; P <= 16; P++ {
		alt, err := n.Evaluate(prog, P)
		if err != nil {
			continue
		}
		if alt.BurstInterval < off.BurstInterval-1e-12 {
			t.Errorf("P=%d gives tbi %v < offered %v (P=%d)", P, alt.BurstInterval, off.BurstInterval, off.P)
		}
	}
	// For this program more processors help compute but split capacity:
	// the optimum must be interior or at the boundary, and tbi finite.
	if off.BurstInterval <= 0 || math.IsInf(off.BurstInterval, 0) {
		t.Errorf("tbi = %v", off.BurstInterval)
	}
}

func TestNegotiationTension(t *testing.T) {
	// A communication-heavy neighbor program with constant per-connection
	// bursts: more processors shrink compute but also shrink B, so the
	// optimal P is finite — the §7.3 tension.
	prog := Program{
		Name:    "halo",
		Local:   AmdahlLocal(1e8, 1e7, 0),
		Burst:   SurfaceBurst(500_000),
		Pattern: fx.Neighbor,
	}
	n := NewNetwork(1.25e6)
	off, err := n.Negotiate(prog, 64)
	if err != nil {
		t.Fatal(err)
	}
	if off.P == 64 {
		t.Errorf("optimum hit the boundary (P=%d); tension not modeled", off.P)
	}
	// And a compute-only variant should push to the maximum.
	prog.Burst = SurfaceBurst(1)
	off2, err := n.Negotiate(prog, 64)
	if err != nil {
		t.Fatal(err)
	}
	if off2.P != 64 {
		t.Errorf("compute-bound program got P=%d, want 64", off2.P)
	}
}

func TestSerialFractionLimitsP(t *testing.T) {
	// With a large serial fraction, adding processors buys little compute
	// but still splits the burst bandwidth — the optimum drops.
	mk := func(serial float64) int {
		prog := Program{
			Name:    "s",
			Local:   AmdahlLocal(1e8, 1e7, serial),
			Burst:   SurfaceBurst(200_000),
			Pattern: fx.Neighbor,
		}
		off, err := NewNetwork(1.25e6).Negotiate(prog, 64)
		if err != nil {
			t.Fatal(err)
		}
		return off.P
	}
	if pLow, pHigh := mk(0.0), mk(0.9); pHigh > pLow {
		t.Errorf("serial fraction raised optimal P: %d → %d", pLow, pHigh)
	}
}

func TestAdmitReducesCapacity(t *testing.T) {
	n := NewNetwork(1.25e6)
	before := n.Available()
	off, err := n.Admit(fftLike(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if n.Available() >= before {
		t.Error("Admit did not reduce available capacity")
	}
	if got := before - n.Available(); math.Abs(got-off.MeanBandwidth) > 1e-6 {
		t.Errorf("capacity reduced by %v, offer mean %v", got, off.MeanBandwidth)
	}
	if len(n.Offers()) != 1 {
		t.Errorf("offers = %d", len(n.Offers()))
	}
}

func TestSecondProgramSeesLessBandwidth(t *testing.T) {
	n := NewNetwork(1.25e6)
	first, err := n.Admit(fftLike(), 8)
	if err != nil {
		t.Fatal(err)
	}
	second := fftLike()
	second.Name = "fft2"
	off2, err := n.Admit(second, 8)
	if err != nil {
		t.Fatal(err)
	}
	if off2.BurstInterval <= first.BurstInterval {
		t.Errorf("second program's tbi %v not worse than first's %v", off2.BurstInterval, first.BurstInterval)
	}
}

func TestRelease(t *testing.T) {
	n := NewNetwork(1.25e6)
	if _, err := n.Admit(fftLike(), 8); err != nil {
		t.Fatal(err)
	}
	if !n.Release("fft") {
		t.Fatal("Release failed")
	}
	if n.Release("fft") {
		t.Error("double release succeeded")
	}
	if math.Abs(n.Available()-1.25e6) > 1e-6 {
		t.Errorf("capacity not restored: %v", n.Available())
	}
}

func TestSaturatedNetworkRejects(t *testing.T) {
	n := NewNetwork(100) // 100 B/s: the fft's demand dwarfs this
	heavy := Program{
		Name:    "heavy",
		Local:   func(P int) float64 { return 0.0001 },
		Burst:   SurfaceBurst(1e9),
		Pattern: fx.AllToAll,
	}
	if _, err := n.Admit(heavy, 8); err != nil {
		t.Fatal(err) // first admission always sees free capacity
	}
	if _, err := n.Admit(heavy, 8); err == nil {
		t.Error("saturated network accepted another program")
	}
}

func TestNegotiateErrors(t *testing.T) {
	n := NewNetwork(1.25e6)
	if _, err := n.Evaluate(fftLike(), 1); err == nil {
		t.Error("P=1 accepted")
	}
	if _, err := n.Negotiate(fftLike(), 1); err == nil {
		t.Error("maxP=1 negotiation succeeded")
	}
}

func TestQuickBurstIntervalMonotoneInB(t *testing.T) {
	// Property: more committed bandwidth never lengthens the burst
	// interval.
	prog := fftLike()
	f := func(rawP uint8, rawB uint32) bool {
		P := int(rawP)%30 + 2
		b1 := float64(rawB%1_000_000) + 1
		b2 := b1 * 2
		return BurstInterval(prog, P, b2) <= BurstInterval(prog, P, b1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickNegotiateIsOptimal(t *testing.T) {
	// Property: for random program shapes, Negotiate's offer is never
	// beaten by any explicit Evaluate in range.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		prog := Program{
			Name:    "rand",
			Local:   AmdahlLocal(1e6+rng.Float64()*1e9, 1e7, rng.Float64()*0.5),
			Burst:   SurfaceBurst(1 + rng.Float64()*1e6),
			Pattern: fx.Pattern(rng.Intn(5)),
		}
		n := NewNetwork(1.25e6)
		off, err := n.Negotiate(prog, 24)
		if err != nil {
			return false
		}
		for P := 2; P <= 24; P++ {
			alt, err := n.Evaluate(prog, P)
			if err != nil {
				continue
			}
			if alt.BurstInterval < off.BurstInterval-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestQuickAdmitNeverOversubscribes(t *testing.T) {
	// Property: however many programs are admitted, the committed mean
	// bandwidth never exceeds capacity.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := NewNetwork(1.25e6)
		for i := 0; i < 10; i++ {
			prog := Program{
				Name:    fmt.Sprintf("p%d", i),
				Local:   AmdahlLocal(1e6+rng.Float64()*1e8, 1e7, 0),
				Burst:   SurfaceBurst(1 + rng.Float64()*5e5),
				Pattern: fx.Pattern(rng.Intn(5)),
			}
			_, _ = n.Admit(prog, 16)
			if n.Available() < -1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestReleaseByID: two admissions of the same program name are distinct
// commitments; releasing by ID frees exactly the identified one, and a
// fully drained network recovers its exact original capacity.
func TestReleaseByID(t *testing.T) {
	n := NewNetwork(1.25e6)
	prog := Program{
		Name:    "sor",
		Local:   AmdahlLocal(1e8, 1e7, 0),
		Burst:   SurfaceBurst(2048),
		Pattern: fx.Neighbor,
	}
	a, err := n.Admit(prog, 16)
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Admit(prog, 16)
	if err != nil {
		t.Fatal(err)
	}
	if a.ID == 0 || b.ID == 0 || a.ID == b.ID {
		t.Fatalf("admission IDs not distinct and nonzero: %d, %d", a.ID, b.ID)
	}
	if !n.ReleaseID(a.ID) {
		t.Fatal("ReleaseID(a) failed")
	}
	if n.ReleaseID(a.ID) {
		t.Fatal("double release of the same ID succeeded")
	}
	if got := len(n.Offers()); got != 1 {
		t.Fatalf("%d offers outstanding, want 1", got)
	}
	if n.Offers()[0].ID != b.ID {
		t.Fatal("released the wrong commitment")
	}
	if !n.ReleaseID(b.ID) {
		t.Fatal("ReleaseID(b) failed")
	}
	if n.Available() != n.CapacityBps {
		t.Fatalf("drained network offers %g, want full capacity %g", n.Available(), n.CapacityBps)
	}
	if n.ReleaseID(999) {
		t.Fatal("releasing an unknown ID succeeded")
	}
}

// TestReleaseCrossPath: an offer released by name must not be releasable
// again by ID (and vice versa) — both paths walk one shared ledger.
func TestReleaseCrossPath(t *testing.T) {
	n := NewNetwork(1.25e6)
	prog := Program{
		Name:    "sor",
		Local:   AmdahlLocal(1e8, 1e7, 0),
		Burst:   SurfaceBurst(2048),
		Pattern: fx.Neighbor,
	}
	off, err := n.Admit(prog, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !n.Release("sor") {
		t.Fatal("Release by name failed")
	}
	if n.ReleaseID(off.ID) {
		t.Fatal("ReleaseID succeeded on an offer already released by name")
	}

	off2, err := n.Admit(prog, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !n.ReleaseID(off2.ID) {
		t.Fatal("ReleaseID failed")
	}
	if n.Release("sor") {
		t.Fatal("Release by name succeeded on an offer already released by ID")
	}
	if n.Available() != n.CapacityBps {
		t.Fatalf("drained network offers %g, want %g", n.Available(), n.CapacityBps)
	}
}

// TestTabulatedProgram: a catalog-style tabulated characterization
// answers only at measured P; Evaluate rejects the gaps and Negotiate
// picks the best measured point.
func TestTabulatedProgram(t *testing.T) {
	prog := TabulatedProgram("sor", fx.Neighbor, []Point{
		{P: 4, LocalSeconds: 0.5, BurstBytes: 4096},
		{P: 8, LocalSeconds: 0.2, BurstBytes: 4096},
	})
	n := NewNetwork(1.25e6)

	if _, err := n.Evaluate(prog, 6); err == nil {
		t.Fatal("Evaluate priced an unmeasured P")
	}
	off4, err := n.Evaluate(prog, 4)
	if err != nil {
		t.Fatal(err)
	}
	off8, err := n.Evaluate(prog, 8)
	if err != nil {
		t.Fatal(err)
	}

	best, err := n.Negotiate(prog, 32)
	if err != nil {
		t.Fatal(err)
	}
	want := off4
	if off8.BurstInterval < off4.BurstInterval {
		want = off8
	}
	if best.P != want.P {
		t.Fatalf("negotiated P=%d, want measured optimum P=%d", best.P, want.P)
	}

	// No points at all → negotiation fails rather than inventing data.
	empty := TabulatedProgram("idle", fx.Neighbor, nil)
	if _, err := n.Negotiate(empty, 32); err == nil {
		t.Fatal("negotiated a program with no measured points")
	}
}
