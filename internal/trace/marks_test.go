package trace

import (
	"bytes"
	"testing"

	"fxnet/internal/sim"
)

func markedTrace() *Trace {
	tr := New()
	tr.Hosts = []string{"a", "b"}
	tr.Meta["program"] = "sor"
	tr.Append(Packet{Time: sim.Time(1 * sim.Second), Size: 100, Src: 0, Dst: 1, Proto: 1})
	tr.Append(Packet{Time: sim.Time(6 * sim.Second), Size: 200, Src: 1, Dst: 0, Proto: 1})
	tr.AddMark(sim.Time(5*sim.Second), "5s:linkdown host1")
	tr.AddMark(sim.Time(7*sim.Second), "7s:linkup host1")
	return tr
}

func TestMarksBinaryRoundTrip(t *testing.T) {
	tr := markedTrace()
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Marks) != 2 {
		t.Fatalf("marks after round trip = %v", got.Marks)
	}
	for i, m := range got.Marks {
		if m != tr.Marks[i] {
			t.Errorf("mark %d = %+v, want %+v", i, m, tr.Marks[i])
		}
	}
	// The encoding key is internal bookkeeping, not user metadata.
	if _, leaked := got.Meta["marks"]; leaked {
		t.Error("marks encoding key leaked into Meta")
	}
	if got.Meta["program"] != "sor" {
		t.Errorf("user Meta lost: %v", got.Meta)
	}
}

func TestMarksTextRoundTrip(t *testing.T) {
	tr := markedTrace()
	var buf bytes.Buffer
	if err := tr.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Marks) != 2 || got.Marks[0].Label != "5s:linkdown host1" {
		t.Fatalf("marks after text round trip = %v", got.Marks)
	}
}

func TestWriteBinaryWithoutMarksUnchanged(t *testing.T) {
	plain := markedTrace()
	plain.Marks = nil
	var buf bytes.Buffer
	if err := plain.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Marks) != 0 {
		t.Errorf("phantom marks: %v", got.Marks)
	}
}
