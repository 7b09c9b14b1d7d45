package core

// This file defines the first-class multi-segment network description.
// The default (nil) topology is the paper's single shared collision
// domain; a non-nil topology names Ethernet segments, pins hosts to
// them, and bridges them through a backbone of trunk links with
// per-segment latency — the switched multi-segment LAN the paper's
// "next generation" discussion anticipates.

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"fxnet/internal/faults"
	"fxnet/internal/sim"
)

// DefaultTrunkLatency is the one-way trunk latency a segment uses when
// its spec does not override it: 1 ms, a campus-backbone store-and-
// forward hop. Cross-segment delay is the sum of the two endpoints'
// trunk latencies, so the default cross-segment RTT (4 ms) stays well
// under the transport's retransmission timeout.
const DefaultTrunkLatency = sim.Millisecond

// MaxTopologyHosts caps the total pinned hosts: trace addresses are
// stored in 16 bits with 0xFFFF reserved for broadcast.
const MaxTopologyHosts = 65534

// TopoSegment is one named Ethernet segment of a multi-segment topology.
type TopoSegment struct {
	// Name identifies the segment in specs and diagnostics.
	Name string `json:"name"`
	// Hosts lists the global host indexes pinned to this segment.
	Hosts []int `json:"hosts"`
	// BitRate is the segment's raw rate in bits per second; 0 inherits
	// the run's BitRate (and ultimately the 10 Mb/s default).
	BitRate float64 `json:"bit_rate,omitempty"`
	// TrunkLatency is the one-way latency of this segment's trunk to
	// the backbone; 0 selects DefaultTrunkLatency. Explicit zero or
	// negative latencies are rejected by the parser — the conservative
	// parallel kernel derives its lookahead from these.
	TrunkLatency sim.Duration `json:"trunk_latency_ns,omitempty"`
}

// Topology is a multi-segment network: segments bridged by transparent
// learning switches over a latency-only backbone.
type Topology struct {
	Segments []TopoSegment `json:"segments"`
}

// trunkLatency returns segment i's effective trunk latency.
func (t *Topology) trunkLatency(i int) sim.Duration {
	if d := t.Segments[i].TrunkLatency; d != 0 {
		return d
	}
	return DefaultTrunkLatency
}

// LookaheadMatrix is the conservative parallelization structure: entry
// [i][j] is the minimum delay any frame leaving segment i needs to reach
// segment j over the bridge graph. Segments are bridged through a
// backbone star, so the direct hop costs trunk(i)+trunk(j) — and because
// every trunk latency is positive, no relay through a third segment can
// undercut the direct hop (trunk(i)+2·trunk(k)+trunk(j) > trunk(i)+
// trunk(j)), making the matrix path-closed as the engine requires. Each
// partition pair advances independently up to its own entry: two
// segments joined by slow trunks run far ahead of a low-latency pair
// instead of crawling at the global minimum, which is what the old
// scalar Lookahead (the sum of the two smallest trunk latencies) forced.
// Nil for single-segment topologies.
func (t *Topology) LookaheadMatrix() [][]sim.Duration {
	n := len(t.Segments)
	if n < 2 {
		return nil
	}
	m := make([][]sim.Duration, n)
	for i := range m {
		m[i] = make([]sim.Duration, n)
		for j := range m[i] {
			if i != j {
				m[i][j] = t.trunkLatency(i) + t.trunkLatency(j)
			}
		}
	}
	return m
}

// segmentOf builds the host-index → segment-index map.
func (t *Topology) segmentOf() map[int]int {
	m := make(map[int]int)
	for i := range t.Segments {
		for _, h := range t.Segments[i].Hosts {
			m[h] = i
		}
	}
	return m
}

// validName reports whether a segment name uses only the spec-safe
// alphabet.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '-':
		default:
			return false
		}
	}
	return true
}

// Validate checks the topology's structural invariants: at least one
// segment, valid unique names, at least one host per segment, no host
// pinned twice, positive rates and latencies, and the host count within
// the trace format's address space.
func (t *Topology) Validate() error {
	if t == nil || len(t.Segments) == 0 {
		return fmt.Errorf("core: topology has no segments")
	}
	names := make(map[string]bool, len(t.Segments))
	seen := make(map[int]string)
	total := 0
	for i := range t.Segments {
		s := &t.Segments[i]
		if !validName(s.Name) {
			return fmt.Errorf("core: invalid segment name %q (want [A-Za-z0-9_-]+)", s.Name)
		}
		if names[s.Name] {
			return fmt.Errorf("core: duplicate segment name %q", s.Name)
		}
		names[s.Name] = true
		if len(s.Hosts) == 0 {
			return fmt.Errorf("core: segment %q has no hosts", s.Name)
		}
		for _, h := range s.Hosts {
			if h < 0 || h >= MaxTopologyHosts {
				return fmt.Errorf("core: segment %q host index %d out of range [0,%d)", s.Name, h, MaxTopologyHosts)
			}
			if prev, dup := seen[h]; dup {
				return fmt.Errorf("core: host %d pinned to both %q and %q", h, prev, s.Name)
			}
			seen[h] = s.Name
			total++
		}
		if !finiteRate(s.BitRate) {
			return fmt.Errorf("core: segment %q bit rate %g is not a finite non-negative rate", s.Name, s.BitRate)
		}
		if belowFloor(s.BitRate) {
			return fmt.Errorf("core: segment %q bit rate %g is below the %g b/s floor", s.Name, s.BitRate, faults.MinBitRate)
		}
		if s.TrunkLatency < 0 {
			return fmt.Errorf("core: segment %q has negative trunk latency", s.Name)
		}
	}
	if total > MaxTopologyHosts {
		return fmt.Errorf("core: topology pins %d hosts, max %d", total, MaxTopologyHosts)
	}
	return nil
}

// ValidateFor additionally checks the placement against a processor
// count: the pinned hosts must be exactly 0..p-1 — a placement naming a
// host the run does not create (or missing one it does) is dangling.
func (t *Topology) ValidateFor(p int) error {
	if err := t.Validate(); err != nil {
		return err
	}
	segOf := t.segmentOf()
	if len(segOf) != p {
		return fmt.Errorf("core: topology pins %d hosts but the run has %d processors", len(segOf), p)
	}
	for h := 0; h < p; h++ {
		if _, ok := segOf[h]; !ok {
			return fmt.Errorf("core: host %d is not pinned to any segment", h)
		}
	}
	return nil
}

// Spec renders the canonical spec string: segments in declaration order,
// hosts as sorted collapsed ranges, rate and latency only when they
// override the defaults. ParseTopology(t.Spec()) reproduces t up to host
// ordering; the farm cache key hashes this string.
func (t *Topology) Spec() string {
	var b strings.Builder
	for i := range t.Segments {
		s := &t.Segments[i]
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(s.Name)
		b.WriteByte(':')
		hosts := append([]int(nil), s.Hosts...)
		sort.Ints(hosts)
		for j := 0; j < len(hosts); {
			k := j
			for k+1 < len(hosts) && hosts[k+1] == hosts[k]+1 {
				k++
			}
			if j > 0 {
				b.WriteByte('+')
			}
			if k == j {
				fmt.Fprintf(&b, "%d", hosts[j])
			} else {
				fmt.Fprintf(&b, "%d-%d", hosts[j], hosts[k])
			}
			j = k + 1
		}
		if s.BitRate > 0 {
			fmt.Fprintf(&b, "@%s", strconv.FormatFloat(s.BitRate/1e6, 'f', -1, 64))
		}
		if s.TrunkLatency > 0 {
			fmt.Fprintf(&b, "~%s", formatLatency(s.TrunkLatency))
		}
	}
	return b.String()
}

func formatLatency(d sim.Duration) string {
	switch {
	case d%sim.Millisecond == 0:
		return fmt.Sprintf("%dms", d/sim.Millisecond)
	case d%sim.Microsecond == 0:
		return fmt.Sprintf("%dus", d/sim.Microsecond)
	default:
		return fmt.Sprintf("%dns", d)
	}
}

// ParseTopology parses the compact spec syntax:
//
//	topology  = segment *( "," segment )
//	segment   = name ":" hosts [ "@" rateMbps ] [ "~" latency ]
//	hosts     = range *( "+" range )
//	range     = index [ "-" index ]
//	latency   = integer ( "ns" | "us" | "ms" | "s" )
//
// Example: "lan0:0-15@100~2ms,lan1:16-31" — two segments; the first runs
// at 100 Mb/s with a 2 ms trunk, the second inherits the run defaults.
// The parsed topology is validated structurally (duplicate names,
// overlapping pins, non-positive latencies are all rejected).
func ParseTopology(spec string) (*Topology, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("core: empty topology spec")
	}
	t := &Topology{}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		name, rest, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("core: segment %q: want name:hosts", part)
		}
		seg := TopoSegment{Name: name}
		if i := strings.IndexByte(rest, '~'); i >= 0 {
			d, err := parseLatency(rest[i+1:])
			if err != nil {
				return nil, fmt.Errorf("core: segment %q: %v", name, err)
			}
			if d <= 0 {
				return nil, fmt.Errorf("core: segment %q: trunk latency must be positive, got %q", name, rest[i+1:])
			}
			seg.TrunkLatency = d
			rest = rest[:i]
		}
		if i := strings.IndexByte(rest, '@'); i >= 0 {
			mbps, err := strconv.ParseFloat(rest[i+1:], 64)
			if err != nil || mbps <= 0 {
				return nil, fmt.Errorf("core: segment %q: bad bit rate %q (Mb/s)", name, rest[i+1:])
			}
			seg.BitRate = mbps * 1e6
			rest = rest[:i]
		}
		for _, r := range strings.Split(rest, "+") {
			lo, hi, err := parseRange(r)
			if err != nil {
				return nil, fmt.Errorf("core: segment %q: %v", name, err)
			}
			for h := lo; h <= hi; h++ {
				seg.Hosts = append(seg.Hosts, h)
			}
		}
		t.Segments = append(t.Segments, seg)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

func parseRange(r string) (lo, hi int, err error) {
	loS, hiS, dashed := strings.Cut(r, "-")
	lo, err = strconv.Atoi(loS)
	if err != nil {
		return 0, 0, fmt.Errorf("bad host range %q", r)
	}
	hi = lo
	if dashed {
		hi, err = strconv.Atoi(hiS)
		if err != nil {
			return 0, 0, fmt.Errorf("bad host range %q", r)
		}
	}
	if lo < 0 || hi < lo {
		return 0, 0, fmt.Errorf("bad host range %q", r)
	}
	if hi-lo >= MaxTopologyHosts {
		return 0, 0, fmt.Errorf("host range %q too wide", r)
	}
	return lo, hi, nil
}

func parseLatency(s string) (sim.Duration, error) {
	var unit sim.Duration
	var num string
	switch {
	case strings.HasSuffix(s, "ns"):
		unit, num = sim.Nanosecond, s[:len(s)-2]
	case strings.HasSuffix(s, "us"):
		unit, num = sim.Microsecond, s[:len(s)-2]
	case strings.HasSuffix(s, "ms"):
		unit, num = sim.Millisecond, s[:len(s)-2]
	case strings.HasSuffix(s, "s"):
		unit, num = sim.Second, s[:len(s)-1]
	default:
		return 0, fmt.Errorf("bad latency %q (want e.g. 500us, 2ms)", s)
	}
	n, err := strconv.Atoi(num)
	if err != nil {
		return 0, fmt.Errorf("bad latency %q", s)
	}
	return sim.Duration(n) * unit, nil
}

// ParseTopologyJSON parses the JSON topology form (the -topology @file
// payload): {"segments":[{"name":...,"hosts":[...],"bit_rate":...,
// "trunk_latency_ns":...}]}. Validated like ParseTopology.
func ParseTopologyJSON(data []byte) (*Topology, error) {
	t := &Topology{}
	if err := json.Unmarshal(data, t); err != nil {
		return nil, fmt.Errorf("core: topology JSON: %v", err)
	}
	for i := range t.Segments {
		if t.Segments[i].TrunkLatency < 0 {
			return nil, fmt.Errorf("core: segment %q: trunk latency must be positive", t.Segments[i].Name)
		}
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// LoadTopology resolves a CLI -topology argument: "@file" loads the file
// (JSON if it starts with '{' or '[', spec syntax otherwise), anything
// else parses as an inline spec. Empty returns nil (shared segment).
func LoadTopology(arg string) (*Topology, error) {
	if arg == "" {
		return nil, nil
	}
	path, isFile := strings.CutPrefix(arg, "@")
	if !isFile {
		return ParseTopology(arg)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s := strings.TrimSpace(string(data))
	if strings.HasPrefix(s, "{") || strings.HasPrefix(s, "[") {
		return ParseTopologyJSON([]byte(s))
	}
	return ParseTopology(s)
}
