package faults

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"fxnet/internal/sim"
)

// goodScripts round-trip through Parse and String; badScripts are
// refused with an error naming the wanted word. Both seed FuzzFaultScript.
var goodScripts = []string{
	"5s:linkdown host2,7s:linkup host2",
	"2s:partition host0+host1|host2+host3,4s:heal",
	"3s:crash host3,10s:restart host3",
	"1s:bitrate 5e+06,2s:duplicate 0.01,2s:reorder 0.005",
	"6s:stall host1 2s",
	"250ms:segdown,1s:segup",
}

var badScripts = []struct{ script, wants string }{
	{"5s linkdown host2", "offset"},
	{"xx:linkdown host2", "offset"},
	{"5s:frobnicate host2", "unknown fault"},
	{"5s:linkdown", "host"},
	{"5s:heal host2", "no arguments"},
	{"5s:partition host0+host1", "two groups"},
	{"5s:bitrate -3", "positive"},
	{"5s:bitrate NaN", "finite"},
	{"5s:bitrate +Inf", "finite"},
	{"5s:bitrate 1e-300", "at least 1 b/s"},
	{"5s:duplicate 1.5", "probability"},
	{"5s:duplicate NaN", "probability"},
	{"5s:reorder NaN", "probability"},
	{"5s:stall host1", "duration"},
	{"-2s:linkdown host2", "negative"},
}

func TestParseRoundTrip(t *testing.T) {
	for _, script := range goodScripts {
		s, err := Parse(script)
		if err != nil {
			t.Errorf("Parse(%q): %v", script, err)
			continue
		}
		if got := s.String(); got != script {
			t.Errorf("round trip %q → %q", script, got)
		}
	}
}

func TestParseSortsByOffset(t *testing.T) {
	s, err := Parse("7s:linkup host2,5s:linkdown host2")
	if err != nil {
		t.Fatal(err)
	}
	if s.Faults[0].Kind != LinkDown || s.Faults[1].Kind != LinkUp {
		t.Errorf("events not sorted by offset: %v", s)
	}
}

func TestParseErrors(t *testing.T) {
	for _, tc := range badScripts {
		if _, err := Parse(tc.script); err == nil {
			t.Errorf("Parse(%q) succeeded, want error mentioning %q", tc.script, tc.wants)
		} else if !strings.Contains(err.Error(), tc.wants) {
			t.Errorf("Parse(%q) error %q, want mention of %q", tc.script, err, tc.wants)
		}
	}
}

// FuzzFaultScript: the POST body's faults field reaches Parse, so any
// input is either refused or yields a schedule the fabric can run —
// rates finite and in range, offsets non-negative and sorted.
func FuzzFaultScript(f *testing.F) {
	for _, script := range goodScripts {
		f.Add(script)
	}
	for _, tc := range badScripts {
		f.Add(tc.script)
	}
	f.Fuzz(func(t *testing.T, script string) {
		s, err := Parse(script)
		if err != nil {
			return
		}
		for i, ft := range s.Faults {
			if ft.At < 0 || i > 0 && ft.At < s.Faults[i-1].At {
				t.Fatalf("%q: fault %d at %v out of order or negative: %v", script, i, ft.At, s)
			}
			switch ft.Kind {
			case BitRateDegrade:
				if !(ft.Rate >= MinBitRate && ft.Rate <= math.MaxFloat64) {
					t.Fatalf("%q: bit rate %g accepted", script, ft.Rate)
				}
			case FrameDuplicate, FrameReorder:
				if !(ft.Rate >= 0 && ft.Rate <= 1) {
					t.Fatalf("%q: probability %g accepted", script, ft.Rate)
				}
			}
		}
	})
}

// testHooks records fired faults and resolves hostN names.
func testHooks(fired *[]string) Hooks {
	note := func(format string, args ...any) {
		*fired = append(*fired, fmt.Sprintf(format, args...))
	}
	return Hooks{
		HostIndex: func(name string) (int, bool) {
			if strings.HasPrefix(name, "host") {
				if n := name[len("host"):]; len(n) == 1 && n[0] >= '0' && n[0] <= '3' {
					return int(n[0] - '0'), true
				}
			}
			return 0, false
		},
		LinkDown:    func(h int, down bool) { note("link %d %v", h, down) },
		SegmentDown: func(down bool) { note("segment %v", down) },
		Partition:   func(groups [][]int) { note("partition %v", groups) },
		Heal:        func() { note("heal") },
		Crash:       func(h int) { note("crash %d", h) },
		Restart:     func(h int) { note("restart %d", h) },
		BitRate:     func(bps float64) { note("bitrate %g", bps) },
		Duplicate:   func(p float64) { note("dup %g", p) },
		Reorder:     func(p float64) { note("reorder %g", p) },
		Stall:       func(h int, d sim.Duration) { note("stall %d %v", h, d) },
	}
}

func TestApplyFiresInScriptOrder(t *testing.T) {
	k := sim.New(1)
	s := MustParse("2s:linkdown host1,4s:partition host0|host1,5s:heal,6s:linkup host1,7s:crash host2,9s:restart host2")
	var fired []string
	if err := Apply(k, s, testHooks(&fired)); err != nil {
		t.Fatal(err)
	}
	k.Run()
	want := []string{
		"link 1 true",
		"partition [[0] [1]]",
		"heal",
		"link 1 false",
		"crash 2",
		"restart 2",
	}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Errorf("event %d = %q, want %q", i, fired[i], want[i])
		}
	}
}

func TestApplyAnnotates(t *testing.T) {
	k := sim.New(1)
	s := MustParse("3s:segdown,5s:segup")
	var fired []string
	h := testHooks(&fired)
	var marks []string
	h.Annotate = func(at sim.Time, f Fault) {
		marks = append(marks, fmt.Sprintf("%v %s", at, f.String()))
	}
	if err := Apply(k, s, h); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if len(marks) != 2 || !strings.Contains(marks[0], "segdown") || !strings.Contains(marks[1], "segup") {
		t.Errorf("marks = %v", marks)
	}
}

func TestApplyRejectsUnknownHost(t *testing.T) {
	k := sim.New(1)
	var fired []string
	s := MustParse("2s:linkdown host9")
	if err := Apply(k, s, testHooks(&fired)); err == nil {
		t.Fatal("Apply accepted an unresolvable host")
	}
	k.Run()
	if len(fired) != 0 {
		t.Errorf("events armed despite validation failure: %v", fired)
	}
}

func TestApplyRejectsMissingHook(t *testing.T) {
	k := sim.New(1)
	var fired []string
	h := testHooks(&fired)
	h.Partition = nil // e.g. a switched topology with no collision domain
	s := MustParse("2s:partition host0|host1")
	err := Apply(k, s, h)
	if err == nil || !strings.Contains(err.Error(), "not supported") {
		t.Fatalf("Apply = %v, want a not-supported error", err)
	}
}

func TestEmptyScriptParsesToEmptySchedule(t *testing.T) {
	s, err := Parse("")
	if err != nil || !s.Empty() {
		t.Errorf("Parse(\"\") = %v, %v; want empty schedule", s, err)
	}
	var nilSched *Schedule
	if !nilSched.Empty() {
		t.Error("nil schedule should report Empty")
	}
}
