package linalg

import (
	"math/rand"
	"testing"
)

func BenchmarkDenseLU_64(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	a := randDominant(r, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Factor(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBandedFactor_1024x8(b *testing.B) {
	r := rand.New(rand.NewSource(2))
	m := randBanded(r, 1024, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := FactorBanded(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBandedSolve_1024x8(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	m := randBanded(r, 1024, 8)
	f, err := FactorBanded(m)
	if err != nil {
		b.Fatal(err)
	}
	rhs := make([]float64, 1024)
	for i := range rhs {
		rhs[i] = r.NormFloat64()
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Solve(rhs)
	}
}

func BenchmarkBandedSolve4_1024x8(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	m := randBanded(r, 1024, 8)
	f, err := FactorBanded(m)
	if err != nil {
		b.Fatal(err)
	}
	rhs := make([][]float64, 4)
	xs := make([][]float64, 4)
	for k := range rhs {
		rhs[k] = make([]float64, 1024)
		xs[k] = make([]float64, 1024)
		for i := range rhs[k] {
			rhs[k][i] = r.NormFloat64()
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := range xs {
			copy(xs[k], rhs[k])
		}
		f.SolveBatch(xs)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(4*b.N), "ns/rhs")
}
