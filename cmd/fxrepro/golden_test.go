package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"fxnet/internal/core"
	"fxnet/internal/ethernet"
)

// goldenQuickDigests pins the SHA-256 of the binary trace of every
// program under the -quick regime at seed 42. These digests are the
// determinism contract of the simulator: any change to event ordering,
// protocol behaviour, or the trace codec shows up here as a mismatch.
//
// Performance work (event pooling, heap layout, timer strategy, buffer
// reuse) must keep every digest byte-identical. A deliberate behaviour
// change updates this map with the "got" digests the failing test
// prints.
var goldenQuickDigests = map[string]string{
	"sor":     "a25d5ba700db8269f4c2bc4698e90a14b9e4dd28b3f1889e03471a288e757947",
	"2dfft":   "28a5e6ca06c90e3294979fa8a4ba75b193db56f4a5d918299ce0e4e0a1a64218",
	"t2dfft":  "f0ba808a68bdea5d68d38f420020803cc0de94a661bd401d7d3fb25d9550dc1a",
	"seq":     "bad34c9f673c9aa85c4bb7b65c4af9e1b16fa7199ef03d8eac0de6336bb77d78",
	"hist":    "57d57b41067e48ffc29d3e7b213792e25cd5ac7bd237aa1595f3a2a0d78f9873",
	"airshed": "db10f5d0c59caff0d1cfd09d39410da34adda1adf3f605815ab467d304ec2a36",
}

// goldenQuickStreamDigests pins the SHA-256 of the streamed bandwidth
// series (SeriesDT followed by every AggSeries bin, as big-endian IEEE
// 754 bits) of every program under the -quick regime at seed 42. The
// streaming pipeline folds these bins during the simulation without
// materializing a trace, so this map is the determinism contract of
// the fold every report comes out of: the accumulator must produce
// these windows bit for bit, under any worker count.
var goldenQuickStreamDigests = map[string]string{
	"sor":     "b91e508c4cb7a97d06e6964f5587d6beef57c3844ff579a57f303156123b851a",
	"2dfft":   "70e3d3f8060bd8e9b19d417961078921b0af0c87d623c7830b1351343bf100eb",
	"t2dfft":  "bf32126d3526bcc375a110a68f0d2783bbab986f9ee3e2e6dbae02e43c4ccb33",
	"seq":     "59019bbdfa0dbdebb0b64c23b1f690c5f72ec2d5df3e33718b604a5fed4669a0",
	"hist":    "0778a28b772bf42cb728fbbd5c1d0d81d9b017063ee60224ed228cb2d15acf9d",
	"airshed": "ce5de76c3d2fb4504a9e52aca40d4f4ab135c769eb4ecb100d2c733906f74c69",
}

// seriesDigest hashes a bandwidth series and its bin width as exact
// float64 bit patterns, so any change in the last ulp of any window is
// a digest mismatch.
func seriesDigest(dt float64, series []float64) string {
	h := sha256.New()
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], math.Float64bits(dt))
	h.Write(buf[:])
	for _, v := range series {
		binary.BigEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// quickDigest runs one -quick program on the default shared segment,
// holds its capture to the collision-domain oracle, and hashes it.
func quickDigest(t testing.TB, name string) string {
	cfg := reproConfig(name, reproOptions{Quick: true, Seed: 42})
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkExclusion(res.Trace, ethernet.DefaultBitRate); err != nil {
		t.Error(err)
	}
	h := sha256.New()
	if err := res.Trace.WriteBinary(h); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestGoldenQuickDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every -quick program")
	}
	for _, name := range core.ProgramNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			want, ok := goldenQuickDigests[name]
			if !ok {
				t.Fatalf("no golden digest recorded for program %q", name)
			}
			if got := quickDigest(t, name); got != want {
				t.Errorf("trace digest changed:\n got  %s\n want %s\n"+
					"the simulation is no longer byte-identical to the committed golden run",
					got, want)
			}
		})
	}
}

func TestGoldenQuickStreamDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every -quick program")
	}
	for _, name := range core.ProgramNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			want, ok := goldenQuickStreamDigests[name]
			if !ok {
				t.Fatalf("no golden stream digest recorded for program %q", name)
			}
			cfg := reproConfig(name, reproOptions{Quick: true, Seed: 42})
			_, rep, err := core.RunStream(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := seriesDigest(rep.SeriesDT, rep.AggSeries); got != want {
				t.Errorf("streamed bandwidth-series digest changed:\n got  %s\n want %s\n"+
					"the in-flight accumulator no longer bins bit-identically to the golden run",
					got, want)
			}
		})
	}
}
