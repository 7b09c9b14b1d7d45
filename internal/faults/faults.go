// Package faults is the deterministic fault-injection subsystem: a
// Schedule of timed Fault events — link flaps, partitions, host crashes,
// rate degradation, frame duplication/reordering, compute stalls —
// compiled onto the simulation's event queue through a Hooks table the
// runtime wires to the MAC, transport, PVM, and Fx layers.
//
// The package deliberately knows nothing about those layers: it depends
// only on internal/sim, so any layer can be driven without import
// cycles. Every fault fires at a scripted virtual time and any
// randomness downstream (frame duplication, reordering) draws from its
// own named kernel stream, so a fixed (seed, schedule) pair replays
// byte-identically.
package faults

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"fxnet/internal/sim"
)

// Kind identifies a fault type.
type Kind int

// The fault types, by the layer they strike: the MAC (LinkDown through
// Reorder), the whole machine (HostCrash/HostRestart), or the compute
// model (ComputeStall).
const (
	// LinkDown silences one station's link: frames to or from it are
	// dropped at delivery (they still occupy the wire). LinkUp restores.
	LinkDown Kind = iota
	LinkUp
	// SegmentDown silences the whole segment; SegmentUp restores.
	SegmentDown
	SegmentUp
	// NetPartition splits the stations into isolated groups; frames
	// crossing a group boundary are dropped. Heal removes the partition.
	NetPartition
	Heal
	// HostCrash kills every process on a host and crashes its transport
	// stack; HostRestart brings the stack and daemon back up.
	HostCrash
	HostRestart
	// BitRateDegrade overrides the segment bit rate (Rate, in bits/s).
	BitRateDegrade
	// FrameDuplicate delivers each frame twice with probability Rate.
	FrameDuplicate
	// FrameReorder swaps adjacent deliveries with probability Rate.
	FrameReorder
	// ComputeStall adds Dur of OS-deschedule stall to the next compute
	// phase of the named host's workers (§6.1's stall, on demand).
	ComputeStall
)

var kindNames = map[Kind]string{
	LinkDown:       "linkdown",
	LinkUp:         "linkup",
	SegmentDown:    "segdown",
	SegmentUp:      "segup",
	NetPartition:   "partition",
	Heal:           "heal",
	HostCrash:      "crash",
	HostRestart:    "restart",
	BitRateDegrade: "bitrate",
	FrameDuplicate: "duplicate",
	FrameReorder:   "reorder",
	ComputeStall:   "stall",
}

var kindByName = func() map[string]Kind {
	m := make(map[string]Kind, len(kindNames))
	for k, n := range kindNames {
		m[n] = k
	}
	return m
}()

func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Fault is one scheduled event.
type Fault struct {
	// At is the virtual-time offset from the start of the run.
	At sim.Duration
	// Kind selects the fault type.
	Kind Kind
	// Host names the target for LinkDown/LinkUp, HostCrash/HostRestart,
	// and ComputeStall.
	Host string
	// Groups lists the partition's host groups for NetPartition.
	Groups [][]string
	// Rate is the new bit rate (BitRateDegrade, bits/s) or probability
	// (FrameDuplicate/FrameReorder).
	Rate float64
	// Dur is the stall length for ComputeStall.
	Dur sim.Duration
}

// String renders the fault in the script syntax Parse accepts.
func (f Fault) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:%s", formatDur(f.At), f.Kind)
	switch f.Kind {
	case LinkDown, LinkUp, HostCrash, HostRestart:
		fmt.Fprintf(&b, " %s", f.Host)
	case NetPartition:
		gs := make([]string, len(f.Groups))
		for i, g := range f.Groups {
			gs[i] = strings.Join(g, "+")
		}
		fmt.Fprintf(&b, " %s", strings.Join(gs, "|"))
	case BitRateDegrade:
		fmt.Fprintf(&b, " %g", f.Rate)
	case FrameDuplicate, FrameReorder:
		fmt.Fprintf(&b, " %g", f.Rate)
	case ComputeStall:
		fmt.Fprintf(&b, " %s %s", f.Host, formatDur(f.Dur))
	}
	return b.String()
}

func formatDur(d sim.Duration) string {
	return time.Duration(d).String()
}

// Schedule is an ordered fault script.
type Schedule struct {
	Faults []Fault
}

// String renders the schedule in the script syntax Parse accepts.
func (s *Schedule) String() string {
	parts := make([]string, len(s.Faults))
	for i, f := range s.Faults {
		parts[i] = f.String()
	}
	return strings.Join(parts, ",")
}

// Empty reports whether the schedule has no faults.
func (s *Schedule) Empty() bool { return s == nil || len(s.Faults) == 0 }

// Parse reads a fault script: comma-separated events of the form
// "<offset>:<kind> [args]", e.g.
//
//	5s:linkdown host2,7s:linkup host2
//	2s:partition host0+host1|host2+host3,4s:heal
//	3s:crash host3,10s:restart host3
//	1s:bitrate 5e6,2s:duplicate 0.01,2s:reorder 0.005
//	6s:stall host1 2s
//
// Offsets use Go duration syntax (5s, 250ms). Events are sorted by
// offset, ties keeping script order.
func Parse(script string) (*Schedule, error) {
	s := &Schedule{}
	script = strings.TrimSpace(script)
	if script == "" {
		return s, nil
	}
	for _, item := range strings.Split(script, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		colon := strings.Index(item, ":")
		if colon < 0 {
			return nil, fmt.Errorf("faults: %q: missing ':' between offset and kind", item)
		}
		td, err := time.ParseDuration(strings.TrimSpace(item[:colon]))
		if err != nil {
			return nil, fmt.Errorf("faults: %q: bad offset: %v", item, err)
		}
		if td < 0 {
			return nil, fmt.Errorf("faults: %q: negative offset", item)
		}
		fields := strings.Fields(item[colon+1:])
		if len(fields) == 0 {
			return nil, fmt.Errorf("faults: %q: missing fault kind", item)
		}
		kind, ok := kindByName[strings.ToLower(fields[0])]
		if !ok {
			return nil, fmt.Errorf("faults: %q: unknown fault kind %q", item, fields[0])
		}
		f := Fault{At: sim.Duration(td), Kind: kind}
		args := fields[1:]
		switch kind {
		case LinkDown, LinkUp, HostCrash, HostRestart:
			if len(args) != 1 {
				return nil, fmt.Errorf("faults: %q: %s needs exactly one host", item, kind)
			}
			f.Host = args[0]
		case SegmentDown, SegmentUp, Heal:
			if len(args) != 0 {
				return nil, fmt.Errorf("faults: %q: %s takes no arguments", item, kind)
			}
		case NetPartition:
			if len(args) != 1 {
				return nil, fmt.Errorf("faults: %q: partition needs group1+...|group2+...", item)
			}
			for _, g := range strings.Split(args[0], "|") {
				hosts := strings.Split(g, "+")
				for _, h := range hosts {
					if h == "" {
						return nil, fmt.Errorf("faults: %q: empty host in partition group", item)
					}
				}
				f.Groups = append(f.Groups, hosts)
			}
			if len(f.Groups) < 2 {
				return nil, fmt.Errorf("faults: %q: partition needs at least two groups", item)
			}
		case BitRateDegrade, FrameDuplicate, FrameReorder:
			if len(args) != 1 {
				return nil, fmt.Errorf("faults: %q: %s needs one numeric argument", item, kind)
			}
			v, err := strconv.ParseFloat(args[0], 64)
			if err != nil {
				return nil, fmt.Errorf("faults: %q: bad value: %v", item, err)
			}
			if kind == BitRateDegrade && v <= 0 {
				return nil, fmt.Errorf("faults: %q: bit rate must be positive", item)
			}
			if kind != BitRateDegrade && (v < 0 || v > 1) {
				return nil, fmt.Errorf("faults: %q: probability outside [0,1]", item)
			}
			f.Rate = v
		case ComputeStall:
			if len(args) != 2 {
				return nil, fmt.Errorf("faults: %q: stall needs <host> <duration>", item)
			}
			f.Host = args[0]
			sd, err := time.ParseDuration(args[1])
			if err != nil || sd <= 0 {
				return nil, fmt.Errorf("faults: %q: bad stall duration", item)
			}
			f.Dur = sim.Duration(sd)
		}
		s.Faults = append(s.Faults, f)
	}
	sort.SliceStable(s.Faults, func(i, j int) bool { return s.Faults[i].At < s.Faults[j].At })
	return s, nil
}

// MustParse is Parse panicking on error, for tests and literals.
func MustParse(script string) *Schedule {
	s, err := Parse(script)
	if err != nil {
		panic(err)
	}
	return s
}

// Hooks is the table of layer entry points a Schedule drives. The
// runtime (internal/core) populates it; any hook left nil makes the
// corresponding fault kinds an Apply-time error rather than a silent
// no-op, so a script never pretends to inject what the topology cannot
// express (e.g. link faults on a switched network).
type Hooks struct {
	// HostIndex resolves a script host name to a machine host index,
	// returning false if unknown.
	HostIndex func(name string) (int, bool)

	LinkDown    func(host int, down bool)
	SegmentDown func(down bool)
	Partition   func(groups [][]int)
	Heal        func()
	Crash       func(host int)
	Restart     func(host int)
	BitRate     func(bps float64)
	Duplicate   func(prob float64)
	Reorder     func(prob float64)
	Stall       func(host int, d sim.Duration)

	// Annotate, if set, records each fault firing (for trace marks).
	Annotate func(at sim.Time, f Fault)
}

// missing reports whether the hook a fault kind needs is nil.
func (h *Hooks) missing(k Kind) bool {
	switch k {
	case LinkDown, LinkUp:
		return h.LinkDown == nil
	case SegmentDown, SegmentUp:
		return h.SegmentDown == nil
	case NetPartition:
		return h.Partition == nil
	case Heal:
		return h.Heal == nil
	case HostCrash:
		return h.Crash == nil
	case HostRestart:
		return h.Restart == nil
	case BitRateDegrade:
		return h.BitRate == nil
	case FrameDuplicate:
		return h.Duplicate == nil
	case FrameReorder:
		return h.Reorder == nil
	case ComputeStall:
		return h.Stall == nil
	}
	return true
}

// Apply validates the schedule against the hooks and arms one kernel
// event per fault. Validation is strict and up-front: unknown host
// names, partition groups that resolve to nothing, or fault kinds the
// topology provides no hook for all fail before any event is armed.
func Apply(k *sim.Kernel, s *Schedule, h Hooks) error {
	if s.Empty() {
		return nil
	}
	resolve := func(name string) (int, error) {
		if h.HostIndex == nil {
			return 0, fmt.Errorf("faults: no host resolver configured")
		}
		idx, ok := h.HostIndex(name)
		if !ok {
			return 0, fmt.Errorf("faults: unknown host %q", name)
		}
		return idx, nil
	}
	type armed struct {
		f    Fault
		fire func()
	}
	plan := make([]armed, 0, len(s.Faults))
	for _, f := range s.Faults {
		if h.missing(f.Kind) {
			return fmt.Errorf("faults: %s not supported by this topology", f.Kind)
		}
		var fire func()
		switch f.Kind {
		case LinkDown, LinkUp:
			idx, err := resolve(f.Host)
			if err != nil {
				return err
			}
			down := f.Kind == LinkDown
			fire = func() { h.LinkDown(idx, down) }
		case SegmentDown, SegmentUp:
			down := f.Kind == SegmentDown
			fire = func() { h.SegmentDown(down) }
		case NetPartition:
			groups := make([][]int, len(f.Groups))
			for i, g := range f.Groups {
				for _, name := range g {
					idx, err := resolve(name)
					if err != nil {
						return err
					}
					groups[i] = append(groups[i], idx)
				}
			}
			fire = func() { h.Partition(groups) }
		case Heal:
			fire = h.Heal
		case HostCrash, HostRestart:
			idx, err := resolve(f.Host)
			if err != nil {
				return err
			}
			if f.Kind == HostCrash {
				fire = func() { h.Crash(idx) }
			} else {
				fire = func() { h.Restart(idx) }
			}
		case BitRateDegrade:
			rate := f.Rate
			fire = func() { h.BitRate(rate) }
		case FrameDuplicate:
			p := f.Rate
			fire = func() { h.Duplicate(p) }
		case FrameReorder:
			p := f.Rate
			fire = func() { h.Reorder(p) }
		case ComputeStall:
			idx, err := resolve(f.Host)
			if err != nil {
				return err
			}
			d := f.Dur
			fire = func() { h.Stall(idx, d) }
		default:
			return fmt.Errorf("faults: unhandled kind %v", f.Kind)
		}
		plan = append(plan, armed{f: f, fire: fire})
	}
	for _, a := range plan {
		a := a
		k.After(a.f.At, "fault:"+a.f.Kind.String(), func() {
			a.fire()
			if h.Annotate != nil {
				h.Annotate(k.Now(), a.f)
			}
		})
	}
	return nil
}
