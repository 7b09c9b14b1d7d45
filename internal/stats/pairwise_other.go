//go:build !amd64

package stats

// useAVX2 is false off amd64: every tile is the portable one.
var useAVX2 = false

func tileAVX2(acc *[32]float64, rows, cols []float64) { tilePortable(acc, rows, cols) }
