package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fxnet/internal/cluster"
)

// ForwardedHeader marks a request one shard forwarded to another. A
// forwarded request is always served locally — never re-proxied — so a
// ring disagreement between two peers can cost an extra hop's latency
// but can never loop.
const ForwardedHeader = "X-Fxnetd-Forwarded"

// clusterState is the per-server cluster runtime: the immutable ring,
// the gossiped peer ledger, the cache-entry fetcher, and routing
// counters. Requests for keys (and job IDs) another shard owns are
// transparently proxied there, so clients see one logical service
// whichever shard they dial.
type clusterState struct {
	ring   *cluster.Ring
	ledger *cluster.Ledger
	// fetcher is nil when the node has no disk cache (nothing to
	// install fetched entries into).
	fetcher *cluster.Fetcher
	// capacityBps is the cluster-wide schedulable QoS capacity; each
	// gossip round sets the local broker's capacity to this minus the
	// sum of remote committed bandwidth.
	capacityBps float64
	httpc       *http.Client

	proxiedSubmits atomic.Int64
	proxiedPolls   atomic.Int64
	proxyFallbacks atomic.Int64
	gossipRounds   atomic.Int64
	ringMismatches atomic.Int64
}

// Ring exposes the cluster ring, nil when the server is not clustered.
func (s *Server) Ring() *cluster.Ring {
	if s.clu == nil {
		return nil
	}
	return s.clu.ring
}

// jobShard extracts the shard prefix from a job ID: "r-s1-00000007"
// names a job shard s1 allocated. IDs from unclustered nodes
// ("r-00000007") have no shard.
func jobShard(id string) string {
	rest, ok := strings.CutPrefix(id, "r-")
	if !ok {
		return ""
	}
	if i := strings.LastIndex(rest, "-"); i >= 0 {
		return rest[:i]
	}
	return ""
}

// routeSubmit handles cluster placement for one run submission: when
// another shard owns the key, proxy there. Reports whether
// the request was fully handled. A proxy failure (owner down) reports
// false without touching the response — the caller executes locally,
// which is the ring's graceful degradation: the result is identical
// (same content-addressed key, same deterministic simulation), it is
// just placed off-ring until the owner returns.
func (s *Server) routeSubmit(w http.ResponseWriter, r *http.Request, key string, body []byte) bool {
	c := s.clu
	if c == nil || r.Header.Get(ForwardedHeader) != "" {
		return false
	}
	owner := c.ring.Owner(key)
	if owner.ID == c.ring.SelfID() {
		return false
	}
	if s.proxyRequest(w, r, owner, body) {
		c.proxiedSubmits.Add(1)
		return true
	}
	c.proxyFallbacks.Add(1)
	s.logf("cluster: submit proxy to %s (%s) failed; executing locally", owner.ID, owner.URL)
	return false
}

// routeJob handles cluster placement for job-addressed requests
// (status, cancel, trace, spectrum): a job ID carrying another shard's
// prefix is proxied there. Unlike submissions there is no local
// fallback — only the owning shard has the job — so an unreachable
// owner is a 502.
func (s *Server) routeJob(w http.ResponseWriter, r *http.Request) bool {
	c := s.clu
	if c == nil || r.Header.Get(ForwardedHeader) != "" {
		return false
	}
	id := r.PathValue("id")
	shard := jobShard(id)
	if shard == "" || shard == c.ring.SelfID() {
		return false
	}
	peer, ok := c.ring.Lookup(shard)
	if !ok {
		// A shard not in our ring config: serve locally (a 404 names the
		// real problem better than a bogus proxy).
		return false
	}
	if !s.proxyRequest(w, r, peer, nil) {
		writeErr(w, http.StatusBadGateway, "shard %s (owner of %s) unreachable", shard, id)
	} else {
		c.proxiedPolls.Add(1)
	}
	return true
}

// proxyRequest forwards r to a peer and relays the response. It
// reports false without having written to w on transport failure, so
// callers can fall back or answer 502 themselves.
func (s *Server) proxyRequest(w http.ResponseWriter, r *http.Request, peer cluster.Peer, body []byte) bool {
	c := s.clu
	url := peer.URL + r.URL.Path
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, url, rd)
	if err != nil {
		return false
	}
	for _, h := range []string{"Content-Type", "Accept", IdempotencyKeyHeader} {
		if v := r.Header.Get(h); v != "" {
			req.Header.Set(h, v)
		}
	}
	req.Header.Set(ForwardedHeader, c.ring.SelfID())
	req.Header.Set(requestIDHeader, w.Header().Get(requestIDHeader)) // instrument set it
	resp, err := c.httpc.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	for _, h := range []string{"Content-Type", "Retry-After", "Location"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set("X-Fxnetd-Served-By", peer.ID)
	w.WriteHeader(resp.StatusCode)
	if _, err := io.Copy(w, resp.Body); err != nil {
		s.logf("cluster: relaying %s from %s: %v", r.URL.Path, peer.ID, err)
	}
	return true
}

// cacheKeyPattern bounds what /v1/cache accepts as a key: lowercase
// hex, the only alphabet farm.Key mints. Anything else (path dots,
// separators) is rejected before it reaches the filesystem.
var cacheKeyPattern = regexp.MustCompile(`^[0-9a-f]{16,128}$`)

// handleCacheEntry is the cache supply side: GET /v1/cache/{key}
// streams the raw content-addressed entry (magic, digest, payload) for
// a peer to verify and install. ?kind=spec selects the spectrum-level
// entry. 404 means this shard has no such entry — a clean miss.
func (s *Server) handleCacheEntry(w http.ResponseWriter, r *http.Request) {
	c := s.farm.Cache()
	if c == nil {
		writeErr(w, http.StatusNotFound, "no cache configured")
		return
	}
	key := r.PathValue("key")
	if !cacheKeyPattern.MatchString(key) {
		writeErr(w, http.StatusBadRequest, "bad cache key %q", key)
		return
	}
	stream := false
	switch kind := r.URL.Query().Get("kind"); kind {
	case "", "run":
	case "spec":
		stream = true
	default:
		writeErr(w, http.StatusBadRequest, "unknown kind %q (have run, spec)", kind)
		return
	}
	rc, size, err := c.OpenEntry(key, stream)
	if err != nil {
		writeErr(w, http.StatusNotFound, "no cache entry for %s", key)
		return
	}
	defer rc.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", fmt.Sprintf("%d", size))
	if _, err := io.Copy(w, rc); err != nil {
		s.logf("cache entry stream %s: %v", key, err)
	}
}

// handleClusterRing reports the ring layout this shard was configured
// with; peers compare versions to detect divergence, and ?key=K
// answers which shard owns a key (the smoke harness's ownership
// oracle).
func (s *Server) handleClusterRing(w http.ResponseWriter, r *http.Request) {
	c := s.clu
	if c == nil {
		writeErr(w, http.StatusNotFound, "not clustered")
		return
	}
	out := map[string]any{
		"version": c.ring.Version(),
		"self":    c.ring.SelfID(),
		"peers":   c.ring.Peers(),
	}
	if key := r.URL.Query().Get("key"); key != "" {
		owner := c.ring.Owner(key)
		out["key"] = key
		out["owner"] = owner.ID
		out["owner_url"] = owner.URL
		out["self_owned"] = owner.ID == c.ring.SelfID()
	}
	writeJSON(w, http.StatusOK, out)
}

// ledgerJSON is the gossip payload: what one shard tells the others
// about its QoS commitments.
type ledgerJSON struct {
	ID           string              `json:"id"`
	RingVersion  int                 `json:"ring_version"`
	CommittedBps float64             `json:"committed_bps"`
	CapacityBps  float64             `json:"capacity_bps"`
	ClusterBps   float64             `json:"cluster_capacity_bps"`
	PeersUp      int                 `json:"peers_up"`
	Peers        []cluster.PeerState `json:"peers"`
}

// handleClusterLedger reports this shard's slice of the cluster QoS
// ledger: its locally committed bandwidth (what peers must subtract
// from the shared capacity) plus its view of everyone else.
func (s *Server) handleClusterLedger(w http.ResponseWriter, r *http.Request) {
	c := s.clu
	if c == nil {
		writeErr(w, http.StatusNotFound, "not clustered")
		return
	}
	_, committed, _, capacity := s.broker.snapshot()
	writeJSON(w, http.StatusOK, ledgerJSON{
		ID:           c.ring.SelfID(),
		RingVersion:  c.ring.Version(),
		CommittedBps: committed,
		CapacityBps:  capacity,
		ClusterBps:   c.capacityBps,
		PeersUp:      c.ledger.PeersUp(),
		Peers:        c.ledger.Snapshot(),
	})
}

// StartClusterGossip launches the ledger gossip loop: every interval,
// poll each peer's /v1/cluster/ledger, fold the answers into the local
// ledger, and set the broker's capacity to the cluster capacity minus
// everything committed elsewhere. A peer that stops answering keeps
// its last-reported commitment (capacity leaks conservative, never
// over-committed) and counts as down.
//
// The returned stop function blocks until the loop has exited. On an
// unclustered server it is a no-op.
func (s *Server) StartClusterGossip(interval time.Duration) (stop func()) {
	if s.clu == nil || interval <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			s.gossipOnce()
			select {
			case <-done:
				return
			case <-t.C:
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// gossipOnce runs one gossip round. Exported to tests via the server's
// gossip loop; the smoke harness drives it with a short interval.
func (s *Server) gossipOnce() {
	c := s.clu
	for _, p := range c.ring.Others() {
		lj, err := c.fetchLedger(p)
		if err != nil {
			c.ledger.MarkDown(p.ID)
			continue
		}
		c.ledger.Update(p.ID, lj.CommittedBps, lj.RingVersion)
		if lj.RingVersion != c.ring.Version() {
			c.ringMismatches.Add(1)
			s.logf("cluster: peer %s runs ring version %d, we run %d",
				p.ID, lj.RingVersion, c.ring.Version())
		}
	}
	c.gossipRounds.Add(1)
	eff := c.capacityBps - c.ledger.RemoteCommitted()
	if eff < 0 {
		eff = 0
	}
	s.broker.setCapacity(eff)
}

// fetchLedger polls one peer's ledger with a gossip-scale timeout.
func (c *clusterState) fetchLedger(p cluster.Peer) (ledgerJSON, error) {
	req, err := http.NewRequest(http.MethodGet, p.URL+"/v1/cluster/ledger", nil)
	if err != nil {
		return ledgerJSON{}, err
	}
	httpc := &http.Client{Timeout: 2 * time.Second, Transport: c.httpc.Transport}
	resp, err := httpc.Do(req)
	if err != nil {
		return ledgerJSON{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return ledgerJSON{}, fmt.Errorf("ledger status %d", resp.StatusCode)
	}
	var lj ledgerJSON
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&lj); err != nil {
		return ledgerJSON{}, err
	}
	return lj, nil
}
