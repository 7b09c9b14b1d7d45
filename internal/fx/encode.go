package fx

import (
	"encoding/binary"
	"math"
)

// The encode helpers serialize the numeric array slices the kernels ship
// between processes. Fx programs declare REAL*4 (float32) and COMPLEX*8
// (complex64) data.
// Everything is little-endian.

// EncodeFloat32s packs xs into a fresh byte slice.
func EncodeFloat32s(xs []float32) []byte {
	out := make([]byte, 4*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(x))
	}
	return out
}

// AppendFloat32s appends xs to dst in EncodeFloat32s's format.
func AppendFloat32s(dst []byte, xs []float32) []byte {
	for _, x := range xs {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(x))
	}
	return dst
}

// DecodeFloat32s unpacks a slice written by EncodeFloat32s into dst,
// which must hold exactly len(b)/4 values: the caller owns the storage,
// so a kernel decodes every message into the same rows.
func DecodeFloat32s(dst []float32, b []byte) {
	if len(b) != 4*len(dst) {
		panic("fx: DecodeFloat32s length mismatch")
	}
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(b))
		b = b[4:]
	}
}

// EncodeComplex64s packs xs (real, imag float32 pairs).
func EncodeComplex64s(xs []complex64) []byte {
	out := make([]byte, 8*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint32(out[8*i:], math.Float32bits(real(x)))
		binary.LittleEndian.PutUint32(out[8*i+4:], math.Float32bits(imag(x)))
	}
	return out
}

// AppendComplex64s appends xs to dst in EncodeComplex64s's format.
func AppendComplex64s(dst []byte, xs []complex64) []byte {
	for _, x := range xs {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(real(x)))
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(imag(x)))
	}
	return dst
}

// DecodeComplex64s unpacks a slice written by EncodeComplex64s into dst,
// which must hold exactly len(b)/8 values.
func DecodeComplex64s(dst []complex64, b []byte) {
	if len(b) != 8*len(dst) {
		panic("fx: DecodeComplex64s length mismatch")
	}
	for i := range dst {
		re := math.Float32frombits(binary.LittleEndian.Uint32(b[8*i:]))
		im := math.Float32frombits(binary.LittleEndian.Uint32(b[8*i+4:]))
		dst[i] = complex(re, im)
	}
}

// EncodeInt64s packs xs.
func EncodeInt64s(xs []int64) []byte {
	out := make([]byte, 8*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(out[8*i:], uint64(x))
	}
	return out
}

// DecodeInt64s unpacks a slice written by EncodeInt64s.
func DecodeInt64s(b []byte) []int64 {
	if len(b)%8 != 0 {
		panic("fx: DecodeInt64s length not a multiple of 8")
	}
	out := make([]int64, len(b)/8)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}
