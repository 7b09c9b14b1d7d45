package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// A span is one timed call into a layer's public API, recorded from the
// benchmark's side of the boundary. Spans nest: a pipeline repetition
// (or one serve_mix loop iteration) is the root, the calls it makes are
// its children, and a span's self time is its duration minus the part
// its children cover. Spans of one repetition share Rep.
type span struct {
	Name       string
	Start, End time.Duration // since the recorder's epoch
	Parent     int           // index into the recorder, -1 for a root
	Rep        int
}

// recorder keeps spans in memory until the pass ends. A nil recorder is
// the untraced pass: begin/end/stage still time the call (the pipeline
// needs the stage durations either way) but keep nothing.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) begin(name string, parent, rep int) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: time.Since(r.epoch), Parent: parent, Rep: rep})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// stage times fn as a child span of parent and returns its duration.
func (r *recorder) stage(name string, parent, rep int, fn func()) time.Duration {
	id := r.begin(name, parent, rep)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	r.end(id)
	return d
}

// coverage is the share of the root spans' time that their direct
// children cover — 1 minus the roots' self-time share.
func (r *recorder) coverage() float64 {
	var roots, children time.Duration
	for _, s := range r.spans {
		switch {
		case s.Parent < 0:
			roots += s.End - s.Start
		case r.spans[s.Parent].Parent < 0:
			children += s.End - s.Start
		}
	}
	if roots == 0 {
		return 0
	}
	return float64(children) / float64(roots)
}

// writeChrome writes the spans as Chrome trace-event JSON ("X" complete
// events, microsecond timestamps); tid is the repetition so one
// repetition's spans stack on one row.
func (r *recorder) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, 0, len(r.spans))
	for i, s := range r.spans {
		events = append(events, event{
			Name: s.Name, Ph: "X",
			Ts:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.End-s.Start) / float64(time.Microsecond),
			Pid: 1, Tid: s.Rep,
			Args: map[string]int{"id": i, "parent": s.Parent},
		})
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
