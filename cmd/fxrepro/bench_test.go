package main

import (
	"testing"

	"fxnet/internal/core"
)

// BenchmarkEndToEndQuickRun measures one serial pass over every program
// at the -quick sizes, for measuring while working; the tracked
// end-to-end numbers are run_s per workload from `go run ./bench`.
func BenchmarkEndToEndQuickRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, name := range core.ProgramNames() {
			cfg := reproConfig(name, reproOptions{Quick: true, Seed: 42})
			if _, err := core.Run(cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}
