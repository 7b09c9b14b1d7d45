package server

import (
	"errors"
	"fmt"
	"sync"

	"fxnet/internal/kernels"
	"fxnet/internal/qos"
)

// NegotiateRequest is the wire form of the paper's §7.3 hand-off: the
// program submits its [l(), b(), c] characterization and the network
// answers with the processor count and burst bandwidth that minimize the
// burst interval given the capacity it has not yet promised elsewhere.
// A request names a measured kernel: the registry's calibrated
// characterization at the given problem size, or the catalog's fitted
// models of it.
type NegotiateRequest struct {
	// Client labels the requester in broker listings; optional.
	Client string `json:"client,omitempty"`
	// Program selects a kernel characterization ("sor", "2dfft",
	// "t2dfft", "seq", "hist").
	Program string `json:"program,omitempty"`
	// Source selects where the characterization comes from: "" or
	// "analytic" uses the registry's calibrated laws; "catalog" answers
	// from the fitted spectral models in the server's catalog — the
	// measured path, restricted to processor counts that have been fit.
	Source string `json:"source,omitempty"`
	// N and Iters override the kernel problem size (0 = paper default).
	N     int `json:"n,omitempty"`
	Iters int `json:"iters,omitempty"`
	// MaxP bounds the processor search; 0 uses the broker default.
	MaxP int `json:"max_p,omitempty"`
	// DryRun negotiates without committing bandwidth.
	DryRun bool `json:"dry_run,omitempty"`
}

// OfferJSON is the wire form of a committed (or dry-run) offer.
type OfferJSON struct {
	ID             int     `json:"id,omitempty"` // 0 on dry runs
	Program        string  `json:"program"`
	Client         string  `json:"client,omitempty"`
	P              int     `json:"p"`
	BurstBandwidth float64 `json:"burst_bandwidth_bps"`
	BurstSeconds   float64 `json:"burst_s"`
	BurstInterval  float64 `json:"tbi_s"`
	MeanBandwidth  float64 `json:"mean_bps"`
}

// program builds the qos.Program a request names.
func (req *NegotiateRequest) program() (qos.Program, error) {
	if req.Program == "" {
		return qos.Program{}, errors.New("program required")
	}
	spec, ok := kernels.Lookup(req.Program)
	if !ok || spec.QoS == nil {
		return qos.Program{}, fmt.Errorf("no QoS characterization for program %q", req.Program)
	}
	params := spec.Params
	if req.N != 0 {
		params.N = req.N
	}
	if req.Iters != 0 {
		params.Iters = req.Iters
	}
	return spec.QoS(params), nil
}

// errNoCapacity wraps negotiation failures that should map to 409, not
// 400: the request was well-formed, the network just cannot serve it now.
var errNoCapacity = errors.New("no feasible offer")

// broker is the stateful admission-control layer over the pure
// qos.Network: it serializes negotiations, tracks outstanding
// commitments by admission ID, and remembers the requesting client for
// listings. See DESIGN.md §9 for the state machine.
type broker struct {
	mu      sync.Mutex
	net     *qos.Network
	maxP    int
	clients map[int]string // admission ID → client label
}

func newBroker(capacityBps float64, maxP int) *broker {
	if maxP <= 0 {
		maxP = 32
	}
	return &broker{net: qos.NewNetwork(capacityBps), maxP: maxP, clients: make(map[int]string)}
}

// negotiate answers one request from the registry's analytic
// characterizations, committing the offer unless DryRun.
func (b *broker) negotiate(req *NegotiateRequest) (OfferJSON, error) {
	prog, err := req.program()
	if err != nil {
		return OfferJSON{}, err
	}
	return b.negotiateWith(prog, req)
}

// negotiateWith answers one request for an already-resolved program —
// the shared tail of the analytic and catalog-backed paths.
func (b *broker) negotiateWith(prog qos.Program, req *NegotiateRequest) (OfferJSON, error) {
	maxP := req.MaxP
	if maxP <= 0 || maxP > b.maxP {
		maxP = b.maxP
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	var off qos.Offer
	var err error
	if req.DryRun {
		off, err = b.net.Negotiate(prog, maxP)
	} else {
		off, err = b.net.Admit(prog, maxP)
	}
	if err != nil {
		return OfferJSON{}, fmt.Errorf("%w: %v", errNoCapacity, err)
	}
	if !req.DryRun && req.Client != "" {
		b.clients[off.ID] = req.Client
	}
	return OfferJSON{
		ID:             off.ID,
		Program:        off.Program,
		Client:         req.Client,
		P:              off.P,
		BurstBandwidth: off.BurstBandwidth,
		BurstSeconds:   off.BurstSeconds,
		BurstInterval:  off.BurstInterval,
		MeanBandwidth:  off.MeanBandwidth,
	}, nil
}

// restore re-installs a journaled admission under its original ID (the
// crash-recovery path).
func (b *broker) restore(off OfferJSON, client string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	ok := b.net.Restore(qos.Offer{
		Program:        off.Program,
		ID:             off.ID,
		P:              off.P,
		BurstBandwidth: off.BurstBandwidth,
		BurstInterval:  off.BurstInterval,
		BurstSeconds:   off.BurstSeconds,
		MeanBandwidth:  off.MeanBandwidth,
	})
	if ok && client != "" {
		b.clients[off.ID] = client
	}
	return ok
}

// release frees the commitment with the given admission ID.
func (b *broker) release(id int) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.net.ReleaseID(id) {
		return false
	}
	delete(b.clients, id)
	return true
}

// snapshot lists outstanding commitments and the capacity ledger.
func (b *broker) snapshot() (offers []OfferJSON, committed, available, capacity float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, off := range b.net.Offers() {
		offers = append(offers, OfferJSON{
			ID:             off.ID,
			Program:        off.Program,
			Client:         b.clients[off.ID],
			P:              off.P,
			BurstBandwidth: off.BurstBandwidth,
			BurstSeconds:   off.BurstSeconds,
			BurstInterval:  off.BurstInterval,
			MeanBandwidth:  off.MeanBandwidth,
		})
	}
	return offers, b.net.Committed(), b.net.Available(), b.net.CapacityBps
}
