package server

import (
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// exposition renders two /metrics scrapes with every sample value
// masked: what remains is each family's HELP and TYPE line and the
// identity (name and label set) of each series, in order. The golden
// file was recorded on the commit before the metric table replaced the
// hand-formatted blocks and is never re-pinned: a diff here is a
// consumer-visible change to the scrape. It has been edited once, by
// hand, when the sharded cluster was deleted: its 2-shard section went,
// and each remaining section lost exactly the HELP, TYPE and sample
// lines of fxnetd_farm_peer_hits_total and fxnetd_cluster_enabled.
func exposition(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	section := func(name, base string) {
		b.WriteString("== " + name + " ==\n")
		b.WriteString(maskValues(fetchMetrics(t, base)))
	}

	_, bare := newTestServer(t, Options{Workers: 1})
	section("bare node", bare.URL)

	dir := t.TempDir()
	s, err := New(Options{Workers: 1, Memoize: true, CacheDir: filepath.Join(dir, "cache"),
		JournalPath: filepath.Join(dir, "journal.wal")})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	if err := s.Recover(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	if st := waitState(t, ts.URL, submit(t, ts.URL, cheapRun())); st.State != stateDone {
		t.Fatalf("run ended %s: %s", st.State, st.Error)
	}
	section("cache + catalog + journal, one run", ts.URL)
	return b.String()
}

var buildVersion = regexp.MustCompile(`version="[^"]*"`)

// maskValues drops the value from every sample line (sed 's/ [^ ]*$//')
// and the toolchain-dependent build_info label.
func maskValues(scrape string) string {
	var b strings.Builder
	for _, line := range strings.Split(strings.TrimSuffix(scrape, "\n"), "\n") {
		if !strings.HasPrefix(line, "#") {
			line = line[:strings.LastIndex(line, " ")]
			line = buildVersion.ReplaceAllString(line, `version="…"`)
		}
		b.WriteString(line + "\n")
	}
	return b.String()
}

func TestMetricsExpositionGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "exposition.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := exposition(t); got != string(want) {
		t.Errorf("/metrics exposition changed:\n%s", lineDiff(string(want), got))
	}
}

// lineDiff lists the lines only one side has, in order of appearance.
func lineDiff(want, got string) string {
	count := func(s string) map[string]int {
		m := map[string]int{}
		for _, l := range strings.Split(s, "\n") {
			m[l]++
		}
		return m
	}
	w, g := count(want), count(got)
	var b strings.Builder
	for _, l := range strings.Split(want, "\n") {
		if g[l] < w[l] {
			b.WriteString("- " + l + "\n")
		}
	}
	for _, l := range strings.Split(got, "\n") {
		if w[l] < g[l] {
			b.WriteString("+ " + l + "\n")
		}
	}
	if b.Len() == 0 {
		return "(same lines, different order)"
	}
	return b.String()
}
