package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
)

// BENCHMARK.json at the repository root is the single declaration of
// every workload and metric: name, unit, direction, and regression
// bound. The code below only computes values by name; units come from
// the manifest, and a value set under an undeclared name is a bug the
// smoke test catches.

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifest struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDecl `json:"workloads"`
	EndToEnd   []metricDecl   `json:"end_to_end"`
	PerLayer   []metricDecl   `json:"per_layer"`
}

// readJSON decodes the file at path into v.
func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func loadManifest(path string) (*manifest, error) {
	var m manifest
	if err := readJSON(path, &m); err != nil {
		return nil, err
	}
	return &m, nil
}

func (m *manifest) workload(name string) bool {
	for _, w := range m.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// measurement is one reported metric value. Q1, Q3 and N describe the
// samples behind a timing; they appear in the printed rows, while the
// result line carries value and unit only.
type measurement struct {
	Value  float64
	Q1, Q3 float64
	N      int
	// Note is appended to the printed row (e.g. a parallel ratio's
	// "base nproc=2, unresolved").
	Note string
}

// metricSet collects values by name during one pass.
type metricSet map[string]measurement

func (s metricSet) set(name string, v float64) { s[name] = measurement{Value: v} }

func (s metricSet) setNote(name string, v float64, note string) {
	s[name] = measurement{Value: v, Note: note}
}

// setSamples records the median of xs with its quartiles and count.
// With a handful of samples the quantile rule extrapolates past the
// data, so the printed quartiles are held inside it.
func (s metricSet) setSamples(name string, xs []float64) {
	q1, med, q3 := quartiles(xs)
	if len(xs) > 0 {
		q1, q3 = max(q1, slices.Min(xs)), min(q3, slices.Max(xs))
	}
	s[name] = measurement{Value: med, Q1: q1, Q3: q3, N: len(xs)}
}

type wireMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the contract's last line of standard output.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]wireMetric `json:"metrics"`
}

// project renders exactly the declared metrics: a declared metric the
// pass did not compute (a layer this workload never enters) reads 0,
// and a computed metric that is not declared is an error.
func project(decls []metricDecl, got metricSet) (map[string]wireMetric, error) {
	out := make(map[string]wireMetric, len(decls))
	declared := make(map[string]bool, len(decls))
	for _, d := range decls {
		declared[d.Name] = true
		v := got[d.Name].Value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		out[d.Name] = wireMetric{Value: v, Unit: d.Unit}
	}
	for name := range got {
		if !declared[name] {
			return nil, fmt.Errorf("metric %s is computed but not declared in BENCHMARK.json", name)
		}
	}
	return out, nil
}

// printRows writes one human-readable row per declared metric the pass
// computed, in manifest order.
func printRows(workload string, decls []metricDecl, got metricSet) {
	for _, d := range decls {
		m, ok := got[d.Name]
		if !ok {
			continue
		}
		row := fmt.Sprintf("%-16s %-36s %14.6g %-10s", workload, d.Name, m.Value, d.Unit)
		if m.N > 0 {
			row += fmt.Sprintf(" q1=%.6g q3=%.6g n=%d", m.Q1, m.Q3, m.N)
		}
		if m.Note != "" {
			row += " (" + m.Note + ")"
		}
		fmt.Println(row)
	}
}

// quartiles returns the first quartile, median and third quartile of xs
// as Python's statistics.quantiles(xs, n=4) computes them (the
// "exclusive" method), so spreads here match the driver's.
func quartiles(xs []float64) (q1, med, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}
