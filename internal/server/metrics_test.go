package server

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// Integer sources render as %d and floats as %g: a byte count must not
// turn into 1.2345678e+07 on its way to the scripts that compare it.
func TestFamilyRendersIntegersAndFloats(t *testing.T) {
	f := family{"fxnetd_test", "gauge", always, "A test family.", func(m *scrape, e emit) {
		e("", int64(12_345_678))
		e(`{kind="x"}`, 1234567.0)
		e("_sum", 0.25)
	}}
	var m scrape
	m.has[always] = true
	var b strings.Builder
	f.write(&b, &m)
	want := "# HELP fxnetd_test A test family.\n# TYPE fxnetd_test gauge\n" +
		"fxnetd_test 12345678\nfxnetd_test{kind=\"x\"} 1.234567e+06\nfxnetd_test_sum 0.25\n"
	if b.String() != want {
		t.Errorf("rendered\n%s\nwant\n%s", b.String(), want)
	}

	// A family whose source the node lacks renders nothing at all.
	f.needs = withCache
	b.Reset()
	f.write(&b, &m)
	if b.Len() != 0 {
		t.Errorf("absent family rendered %q", b.String())
	}
}

// README's metrics table is the metric table, rendered.
func TestREADMEMetricsTable(t *testing.T) {
	var want strings.Builder
	want.WriteString("| Metric | Type | Help |\n| --- | --- | --- |\n")
	for _, f := range families {
		fmt.Fprintf(&want, "| `%s` | %s | %s |\n", f.name, f.kind, f.help)
	}
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	if _, table, ok := strings.Cut(string(readme), "\n| Metric | Type | Help |\n"); ok {
		got.WriteString("| Metric | Type | Help |\n")
		for _, line := range strings.Split(table, "\n") {
			if !strings.HasPrefix(line, "|") {
				break
			}
			got.WriteString(line + "\n")
		}
	}
	if got.String() != want.String() {
		t.Errorf("README.md's metrics table is not the rendering of families; want:\n%s", want.String())
	}
}
