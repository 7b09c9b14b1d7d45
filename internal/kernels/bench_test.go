package kernels

import (
	"fmt"
	"testing"

	"fxnet/internal/ethernet"
	"fxnet/internal/fx"
	"fxnet/internal/netstack"
	"fxnet/internal/pvm"
	"fxnet/internal/sim"
)

// benchKernel runs one small-scale kernel end to end (real computation,
// real messages, simulated wire) per iteration.
func benchKernel(b *testing.B, name string, p Params) {
	spec, ok := Lookup(name)
	if !ok {
		b.Fatal("unknown kernel")
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := sim.New(1)
		seg := ethernet.NewSegment(k, 0)
		var hosts []*netstack.Host
		for j := 0; j < spec.P; j++ {
			st := seg.Attach(fmt.Sprintf("h%d", j))
			hosts = append(hosts, netstack.NewHost(k, st, st.Name(), netstack.DefaultConfig()))
		}
		m := pvm.NewMachine(k, hosts, pvm.Config{})
		fx.Launch(m, spec.P, fx.CostModel{DefaultRate: 1e12}, name, func(w *fx.Worker) {
			spec.Run(w, p)
		})
		k.Run()
		k.Close()
	}
}

func BenchmarkSORSmall(b *testing.B)    { benchKernel(b, "sor", Params{N: 64, Iters: 10}) }
func BenchmarkFFT2DSmall(b *testing.B)  { benchKernel(b, "2dfft", Params{N: 64, Iters: 3}) }
func BenchmarkT2DFFTSmall(b *testing.B) { benchKernel(b, "t2dfft", Params{N: 64, Iters: 3}) }
func BenchmarkSEQSmall(b *testing.B)    { benchKernel(b, "seq", Params{N: 16, Iters: 1}) }
func BenchmarkHISTSmall(b *testing.B)   { benchKernel(b, "hist", Params{N: 64, Iters: 10}) }
