package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A minimal reader for the gzipped profile.proto that runtime/pprof
// writes — just enough to walk each CPU sample's stack and name its
// functions, so the layer budget needs neither `go tool pprof` nor a
// module dependency. Field numbers are from
// github.com/google/pprof/proto/profile.proto.

// cpuShares charges every sample of a CPU profile to one bucket and
// returns each bucket's share of the total. A sample belongs to the
// innermost fxnet/internal/<pkg> frame on its stack when <pkg> is in
// layers; to "harness" when that frame is another package, when the
// innermost frame of ours is the benchmark's own code, or when
// harnessFrame is anywhere on the stack; and to "runtime" when no frame
// of ours is on it at all (GC, scheduler, network poller).
func cpuShares(profile []byte, layers map[string]bool) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}

	type sample struct {
		locs  []uint64
		value int64
	}
	var (
		samples  []sample
		locFuncs = map[uint64][]uint64{} // location id → function ids, innermost first
		funcName = map[uint64]int64{}    // function id → string-table index
		strs     []string
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			var vals []uint64
			if err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					vals = appendVarints(vals, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(vals) > 0 {
				// The last value is cpu/nanoseconds; shares are the
				// same in either unit.
				s.value = int64(vals[len(vals)-1])
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			if err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // Function
			var id uint64
			var name int64
			if err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}

	const internal = "fxnet/internal/"
	bucketOf := func(s sample) string {
		bucket := "runtime"
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				idx := funcName[fn]
				if idx < 0 || int(idx) >= len(strs) {
					continue
				}
				name := strs[idx]
				if name == harnessFrame {
					return "harness"
				}
				if bucket != "runtime" {
					continue // already charged; still looking for harnessFrame
				}
				if rest, ok := strings.CutPrefix(name, internal); ok {
					bucket = "harness"
					if pkg := rest[:strings.IndexAny(rest+".", "./")]; layers[pkg] {
						bucket = pkg
					}
				} else if strings.HasPrefix(name, "main.") {
					bucket = "harness"
				}
			}
		}
		return bucket
	}

	var total int64
	sums := map[string]int64{}
	for _, s := range samples {
		sums[bucketOf(s)] += s.value
		total += s.value
	}
	// A pass too short to draw a sample has no shares to report.
	shares := make(map[string]float64, len(sums))
	for b, v := range sums {
		shares[b] = float64(v) / float64(total)
	}
	return shares, nil
}

// eachField walks the top-level fields of one protobuf message. For a
// varint field fn receives the value; for a length-delimited field, the
// payload. Fixed-width fields are skipped (the profile has none we read).
func eachField(b []byte, fn func(num int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("truncated field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("truncated varint")
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("truncated fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("truncated bytes field")
			}
			payload := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, 0, payload); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errors.New("truncated fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

// appendVarints appends a repeated integer field's values: one value
// when the field arrived unpacked, the whole run when packed.
func appendVarints(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}
