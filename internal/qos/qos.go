// Package qos implements the paper's §7.3 negotiation model. A SPMD
// program characterizes its traffic as [l(), b(), c]: l maps the
// processor count P to the local computation time per phase, b maps P to
// the burst size per connection, and c is the communication pattern.
// Unlike a media stream — known period, variable burst — the parallel
// program has a known burst size but a period that depends on P and on
// the bandwidth B the network commits:
//
//	tbi(P) = l(P) + b(P)/B(P)
//
// The network, knowing its capacity and other commitments, is allowed to
// return the P that minimizes the burst interval — co-optimizing program
// and network.
package qos

import (
	"fmt"
	"math"

	"fxnet/internal/fx"
)

// Program is the [l(), b(), c] characterization.
type Program struct {
	Name string
	// Local is l: processor count → local computation seconds per phase.
	Local func(P int) float64
	// Burst is b: processor count → burst bytes per connection.
	Burst func(P int) float64
	// Pattern is c.
	Pattern fx.Pattern
}

// ConcurrentSenders reports how many connections of pattern c are active
// simultaneously during a burst on P processors, which is what divides
// the shared-medium capacity: on a compiled shift schedule every
// processor drives one connection at a time for neighbor and all-to-all;
// only the sending half drives partition; a broadcast root serializes its
// sends; a tree halves the senders each step (we charge the first,
// widest, step).
func ConcurrentSenders(c fx.Pattern, P int) int {
	if P < 2 {
		return 0
	}
	switch c {
	case fx.Neighbor, fx.AllToAll:
		return P
	case fx.Partition:
		return P / 2
	case fx.Broadcast:
		return 1
	case fx.Tree:
		return P / 2
	default:
		return P
	}
}

// Offer is the network's answer to a negotiation.
type Offer struct {
	Program string
	// ID identifies an admitted commitment for release; 0 on offers that
	// were evaluated but never admitted.
	ID int
	// P is the processor count the network tells the program to use.
	P int
	// BurstBandwidth is the per-connection bandwidth B committed during
	// bursts, bytes/s.
	BurstBandwidth float64
	// BurstInterval is the resulting tbi in seconds.
	BurstInterval float64
	// BurstSeconds is b(P)/B, the communication part of the interval.
	BurstSeconds float64
	// MeanBandwidth is the program's average aggregate demand,
	// connections × b(P) / tbi, bytes/s.
	MeanBandwidth float64
}

// EffectiveCapacityBps is the usable capacity of the paper's 10 Mb/s
// shared segment in bytes/s: the 1.25 MB/s line rate derated by framing,
// ACK and CSMA/CD overhead, as the ethernet saturation test measures. The
// §7.3 validation, degraded-team renegotiation and fxnetd's default
// network all assume it.
const EffectiveCapacityBps = 1.1e6

// Network is the entity granting QoS commitments on a shared medium.
type Network struct {
	// CapacityBps is the usable capacity in bytes per second.
	CapacityBps float64
	// committedMean is the aggregate mean bandwidth already promised.
	committedMean float64
	offers        []Offer
	nextID        int
}

// NewNetwork returns a network with the given capacity in bytes/s.
func NewNetwork(capacityBps float64) *Network {
	return &Network{CapacityBps: capacityBps}
}

// Available reports the mean bandwidth not yet committed.
func (n *Network) Available() float64 {
	return math.Max(0, n.CapacityBps-n.committedMean)
}

// Committed reports the aggregate mean bandwidth already promised.
func (n *Network) Committed() float64 { return n.committedMean }

// Offers lists accepted commitments.
func (n *Network) Offers() []Offer { return n.offers }

// BurstInterval evaluates tbi for a program on P processors when each
// active connection is granted burst bandwidth B bytes/s.
func BurstInterval(prog Program, P int, B float64) float64 {
	if B <= 0 {
		return math.Inf(1)
	}
	return prog.Local(P) + prog.Burst(P)/B
}

// Evaluate computes the offer the network would make for a fixed P: the
// burst bandwidth is the network's free capacity split across the
// pattern's concurrently active connections. A program whose
// characterization is not finite at P — a tabulated program queried at
// an unmeasured processor count — is rejected rather than priced from
// garbage.
func (n *Network) Evaluate(prog Program, P int) (Offer, error) {
	if P < 2 {
		return Offer{}, fmt.Errorf("qos: need P ≥ 2, got %d", P)
	}
	if l, b := prog.Local(P), prog.Burst(P); !finite(l) || !finite(b) {
		return Offer{}, fmt.Errorf("qos: %s has no characterization at P=%d", prog.Name, P)
	}
	senders := ConcurrentSenders(prog.Pattern, P)
	if senders == 0 {
		return Offer{}, fmt.Errorf("qos: pattern %v idle on P=%d", prog.Pattern, P)
	}
	free := n.Available()
	if free <= 1e-9*n.CapacityBps {
		return Offer{}, fmt.Errorf("qos: no capacity available")
	}
	B := free / float64(senders)
	tbi := BurstInterval(prog, P, B)
	// Mean demand over one burst interval: the concurrently active
	// connections each move b(P) bytes per tbi (the paper's per-step
	// shift-pattern model), so mean ≤ senders·B = free capacity always.
	mean := float64(senders) * prog.Burst(P) / tbi
	return Offer{
		Program:        prog.Name,
		P:              P,
		BurstBandwidth: B,
		BurstInterval:  tbi,
		BurstSeconds:   prog.Burst(P) / B,
		MeanBandwidth:  mean,
	}, nil
}

// Negotiate searches P ∈ [2, maxP] for the processor count minimizing the
// burst interval and returns that offer without committing it. This is
// the paper's proposal: the program hands over [l(), b(), c]; the network
// hands back P.
func (n *Network) Negotiate(prog Program, maxP int) (Offer, error) {
	var best Offer
	found := false
	for P := 2; P <= maxP; P++ {
		off, err := n.Evaluate(prog, P)
		if err != nil {
			continue
		}
		if !found || off.BurstInterval < best.BurstInterval {
			best = off
			found = true
		}
	}
	if !found {
		return Offer{}, fmt.Errorf("qos: no feasible P ≤ %d for %s", maxP, prog.Name)
	}
	return best, nil
}

// Admit negotiates and commits the offer, reducing the capacity seen by
// later programs by the program's mean bandwidth demand.
func (n *Network) Admit(prog Program, maxP int) (Offer, error) {
	off, err := n.Negotiate(prog, maxP)
	if err != nil {
		return Offer{}, err
	}
	n.nextID++
	off.ID = n.nextID
	n.committedMean += off.MeanBandwidth
	n.offers = append(n.offers, off)
	return off, nil
}

// Restore re-installs a previously admitted offer under its original
// admission ID — the crash-recovery path, where a journal replay
// rebuilds the ledger. It refuses IDs that are unset or already
// present, and advances the ID sequence past the restored one so new
// admissions never collide with recovered ones.
func (n *Network) Restore(off Offer) bool {
	if off.ID <= 0 {
		return false
	}
	for _, o := range n.offers {
		if o.ID == off.ID {
			return false
		}
	}
	n.offers = append(n.offers, off)
	n.committedMean += off.MeanBandwidth
	if off.ID > n.nextID {
		n.nextID = off.ID
	}
	return true
}

// Release returns a previously admitted program's bandwidth to the pool.
func (n *Network) Release(name string) bool {
	return n.releaseWhere(func(off Offer) bool { return off.Program == name })
}

// ReleaseID releases the commitment with the given admission ID — the
// unambiguous form when several admitted programs share a name (a
// long-running broker admitting the same kernel for many clients).
func (n *Network) ReleaseID(id int) bool {
	return n.releaseWhere(func(off Offer) bool { return off.ID == id })
}

// releaseWhere releases the first offer matching the predicate; false
// when nothing matches (including an offer already released through the
// other lookup path).
func (n *Network) releaseWhere(match func(Offer) bool) bool {
	for i, off := range n.offers {
		if match(off) {
			return n.release(i)
		}
	}
	return false
}

func (n *Network) release(i int) bool {
	n.committedMean -= n.offers[i].MeanBandwidth
	n.offers = append(n.offers[:i], n.offers[i+1:]...)
	if len(n.offers) == 0 {
		// Empty network: clamp away accumulated float error so a fully
		// drained broker offers exactly its original capacity again.
		n.committedMean = 0
	}
	return true
}

// SurfaceBurst builds a b() for halo-exchange style programs whose burst
// shrinks with P (n bytes per row, rows split P ways is constant n — the
// neighbor case), while BlockBurst models transpose-style programs whose
// per-connection burst shrinks as P²:
func SurfaceBurst(bytes float64) func(P int) float64 {
	return func(P int) float64 { return bytes }
}

// BlockBurst models all-to-all redistribution of totalBytes of data: each
// of the P(P−1) connections carries totalBytes/P² per burst.
func BlockBurst(totalBytes float64) func(P int) float64 {
	return func(P int) float64 {
		if P < 1 {
			P = 1
		}
		return totalBytes / float64(P*P)
	}
}

// Point is one measured admission point of a tabulated characterization:
// the local computation seconds and per-connection burst bytes observed
// (or fitted) at one processor count.
type Point struct {
	P            int
	LocalSeconds float64
	BurstBytes   float64
}

// TabulatedProgram builds a [l(), b(), c] characterization from measured
// points — the catalog-backed path, where l and b come from fitted
// spectral models rather than analytic laws. The program answers only at
// measured processor counts: elsewhere l and b are +Inf, which Evaluate
// rejects and Negotiate skips, so the network picks the best measured P
// and never extrapolates beyond the data.
func TabulatedProgram(name string, pattern fx.Pattern, pts []Point) Program {
	m := make(map[int]Point, len(pts))
	for _, pt := range pts {
		m[pt.P] = pt
	}
	return Program{
		Name:    name,
		Pattern: pattern,
		Local: func(P int) float64 {
			if pt, ok := m[P]; ok {
				return pt.LocalSeconds
			}
			return math.Inf(1)
		},
		Burst: func(P int) float64 {
			if pt, ok := m[P]; ok {
				return pt.BurstBytes
			}
			return math.Inf(1)
		},
	}
}

// finite reports whether v is a usable characterization value.
func finite(v float64) bool { return !math.IsInf(v, 0) && !math.IsNaN(v) }
