package main

import (
	"testing"

	"fxnet"
)

// BenchmarkEndToEndQuickRun measures one serial pass over every program
// at the -quick sizes, for measuring while working; the tracked
// end-to-end numbers are run_s per workload from `go run ./bench`.
func BenchmarkEndToEndQuickRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, name := range fxnet.Programs() {
			cfg := reproConfig(name, reproOptions{Quick: true, Seed: 42})
			if _, err := fxnet.Run(cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}
