package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"fxnet/internal/cluster"
	"fxnet/internal/farm"
)

// hswap lets a test start an httptest front end before the Server that
// will answer on it exists — the ring needs every peer's URL up front.
type hswap struct {
	mu sync.Mutex
	h  http.Handler
}

func (h *hswap) set(d http.Handler) {
	h.mu.Lock()
	h.h = d
	h.mu.Unlock()
}

func (h *hswap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mu.Lock()
	d := h.h
	h.mu.Unlock()
	if d == nil {
		http.Error(w, "shard not ready", http.StatusServiceUnavailable)
		return
	}
	d.ServeHTTP(w, r)
}

// startCluster boots n shards (s0..s[n-1]) that know each other's real
// URLs. mod customizes each shard's options before New.
func startCluster(t *testing.T, n int, mod func(i int, o *Options)) ([]*Server, []*httptest.Server) {
	t.Helper()
	swaps := make([]*hswap, n)
	fronts := make([]*httptest.Server, n)
	peers := make([]cluster.Peer, n)
	for i := range peers {
		swaps[i] = &hswap{}
		fronts[i] = httptest.NewServer(swaps[i])
		t.Cleanup(fronts[i].Close)
		peers[i] = cluster.Peer{ID: fmt.Sprintf("s%d", i), URL: fronts[i].URL}
	}
	servers := make([]*Server, n)
	for i := range servers {
		o := Options{
			Workers: 2,
			Memoize: true,
			Cluster: cluster.Config{Version: 1, Self: peers[i].ID, Peers: peers},
		}
		if mod != nil {
			mod(i, &o)
		}
		s, err := New(o)
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = s
		swaps[i].set(s.Handler())
	}
	return servers, fronts
}

// reqOwnedBy finds a cheap run configuration whose key the given shard
// owns, by walking seeds.
func reqOwnedBy(t *testing.T, s *Server, shard string) RunRequest {
	t.Helper()
	for seed := int64(1); seed < 1000; seed++ {
		req := cheapRun()
		req.Seed = seed
		cfg, err := req.config()
		if err != nil {
			t.Fatal(err)
		}
		if s.Ring().Owner(farm.Key(cfg)).ID == shard {
			return req
		}
	}
	t.Fatalf("no seed in [1,1000) hashes to shard %s", shard)
	return RunRequest{}
}

func TestJobShard(t *testing.T) {
	cases := []struct{ id, want string }{
		{"r-00000001", ""},
		{"r-s1-00000001", "s1"},
		{"r-a-b-00000007", "a-b"},
		{"nonsense", ""},
		{"", ""},
	}
	for _, tc := range cases {
		if got := jobShard(tc.id); got != tc.want {
			t.Errorf("jobShard(%q) = %q, want %q", tc.id, got, tc.want)
		}
	}
}

func TestRestoreSeqShardPrefixed(t *testing.T) {
	r := newJobRegistry(nil)
	r.shard = "s2"
	r.restoreSeq("r-s2-00000041")
	if id := r.allocID(); id != "r-s2-00000042" {
		t.Fatalf("allocID after shard-prefixed restore = %s", id)
	}
}

func TestClusterSubmitProxiedToOwner(t *testing.T) {
	servers, fronts := startCluster(t, 2, nil)
	req := reqOwnedBy(t, servers[0], "s1")

	// Submitted to the non-owner, the run must land on (and be executed
	// by) the owner, and the returned ID must carry the owner's prefix.
	var acc map[string]any
	if code := doJSON(t, "POST", fronts[0].URL+"/v1/runs", req, &acc); code != http.StatusAccepted {
		t.Fatalf("submit via non-owner: HTTP %d", code)
	}
	id, _ := acc["id"].(string)
	if !strings.HasPrefix(id, "r-s1-") {
		t.Fatalf("job id %q not minted by owner s1", id)
	}

	// Polling through the non-owner routes to the shard that owns the ID.
	st := waitState(t, fronts[0].URL, id)
	if st.State != stateDone {
		t.Fatalf("run ended %s: %s", st.State, st.Error)
	}
	if got := servers[1].farm.Stats().Executed; got != 1 {
		t.Fatalf("owner executed %d sims, want 1", got)
	}
	if got := servers[0].farm.Stats().Executed; got != 0 {
		t.Fatalf("non-owner executed %d sims, want 0", got)
	}
	if got := servers[0].clu.proxiedSubmits.Load(); got != 1 {
		t.Fatalf("proxied submits = %d, want 1", got)
	}
}

// logBuf is a goroutine-safe log sink a test can read while handlers
// are still writing to it.
type logBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *logBuf) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *logBuf) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// One request ID names a request on both sides of the proxy hop: the
// front adopts a well-formed inbound X-Request-ID (or mints one) and
// forwards it, so its req= line and the owner's agree. A malformed
// header is replaced, never echoed or logged.
func TestClusterProxyCarriesRequestID(t *testing.T) {
	logs := []*logBuf{{}, {}}
	servers, fronts := startCluster(t, 2, func(i int, o *Options) { o.Log = log.New(logs[i], "", 0) })
	req := reqOwnedBy(t, servers[0], "s1")
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	minted := regexp.MustCompile(`^[0-9a-f]{8}$`)
	for _, tc := range []struct {
		name, inbound string
		adopted       bool
	}{
		{"adopted", "trace-me_7.a", true},
		{"none", "", false},
		{"spaces", "two words", false},
		{"markup", `<b>"x"</b>`, false},
		{"too long", strings.Repeat("a", 65), false},
	} {
		hr, err := http.NewRequest("POST", fronts[0].URL+"/v1/runs", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if tc.inbound != "" {
			hr.Header.Set("X-Request-ID", tc.inbound)
		}
		resp, err := http.DefaultClient.Do(hr)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted || resp.Header.Get("X-Fxnetd-Served-By") != "s1" {
			t.Fatalf("%s: HTTP %d served by %q, want a 202 proxied to s1", tc.name, resp.StatusCode, resp.Header.Get("X-Fxnetd-Served-By"))
		}
		id := resp.Header.Get("X-Request-ID")
		if tc.adopted && id != tc.inbound {
			t.Errorf("%s: response carries %q, want the inbound %q", tc.name, id, tc.inbound)
		}
		if !tc.adopted && !minted.MatchString(id) {
			t.Errorf("%s: response carries %q, want a freshly minted ID", tc.name, id)
		}
		// The log line follows the response; give each shard a moment.
		line := "req=" + id + " "
		for i, l := range logs {
			deadline := time.Now().Add(5 * time.Second)
			for !strings.Contains(l.String(), line) && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := strings.Count(l.String(), line); n != 1 {
				t.Errorf("%s: shard s%d logged %q %d times, want once:\n%s", tc.name, i, line, n, l.String())
			}
			if !tc.adopted && tc.inbound != "" && strings.Contains(l.String(), tc.inbound) {
				t.Errorf("%s: shard s%d logged the malformed header %q", tc.name, i, tc.inbound)
			}
		}
	}
}

func TestClusterWarmClusterExecutesOnce(t *testing.T) {
	servers, fronts := startCluster(t, 3, nil)
	req := reqOwnedBy(t, servers[0], "s2")

	// The same configuration submitted through every shard simulates
	// exactly once: routing concentrates the key on its owner, whose
	// memo/single-flight serves the rest.
	for _, f := range fronts {
		id := submit(t, f.URL, req)
		if st := waitState(t, f.URL, id); st.State != stateDone {
			t.Fatalf("run %s via %s ended %s: %s", id, f.URL, st.State, st.Error)
		}
	}
	total := int64(0)
	for _, s := range servers {
		total += s.farm.Stats().Executed
	}
	if total != 1 {
		t.Fatalf("warm cluster executed %d sims, want 1", total)
	}
}

// submitForwarded submits a run marked as already forwarded by a peer,
// so the shard it lands on serves it locally instead of proxying it.
func submitForwarded(t *testing.T, base string, req RunRequest) string {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.NewRequest("POST", base+"/v1/runs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set(ForwardedHeader, "test")
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	var acc struct {
		ID string `json:"id"`
	}
	if err := jsonDecode(resp, &acc); err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("forwarded submit: HTTP %d (%v)", resp.StatusCode, err)
	}
	return acc.ID
}

func TestClusterPeerFetchTier(t *testing.T) {
	// Forwarded submits are served where they land, so a submit to a
	// non-owner exercises the disk-miss → peer-fetch tier instead of
	// the proxy. Once each key's ring owner is warm, a spray of every
	// key through every front executes nothing: each non-owner's first
	// touch is one peer fetch, and the installed copy serves the rest.
	for _, tc := range []struct{ shards, keys int }{{2, 1}, {3, 8}} {
		t.Run(fmt.Sprintf("%dshards_%dkeys", tc.shards, tc.keys), func(t *testing.T) {
			servers, fronts := startCluster(t, tc.shards, func(i int, o *Options) {
				o.Memoize = false
				o.CacheDir = t.TempDir()
			})
			run := func(front int, req RunRequest) {
				t.Helper()
				id := submitForwarded(t, fronts[front].URL, req)
				if st := waitState(t, fronts[front].URL, id); st.State != stateDone {
					t.Fatalf("seed %d via s%d ended %s: %s", req.Seed, front, st.State, st.Error)
				}
			}
			reqs := make([]RunRequest, tc.keys)
			owned := make([]int64, tc.shards)
			for k := range reqs {
				reqs[k] = cheapRun()
				reqs[k].Seed = int64(k + 1)
				cfg, err := reqs[k].config()
				if err != nil {
					t.Fatal(err)
				}
				ownerID := servers[0].Ring().Owner(farm.Key(cfg)).ID
				owner := slices.IndexFunc(servers, func(s *Server) bool { return s.Ring().SelfID() == ownerID })
				owned[owner]++
				run(owner, reqs[k])
			}

			for pass := 0; pass < 2; pass++ {
				for front := range fronts {
					for _, req := range reqs {
						run(front, req)
					}
				}
			}
			for i, s := range servers {
				fs := s.farm.Stats()
				keys := int64(tc.keys)
				if fs.Executed != owned[i] || fs.CacheHits != 2*keys || fs.PeerHits != keys-owned[i] {
					t.Errorf("shard s%d stats %+v, want %d executed (its own keys) / %d cache hits / %d peer hits",
						i, fs, owned[i], 2*keys, keys-owned[i])
				}
				if st := s.farm.Cache().Stats(); st.Entries != keys {
					t.Errorf("shard s%d holds %d entries, want all %d installed locally", i, st.Entries, tc.keys)
				}
			}
		})
	}
}

func TestClusterProxyFallbackWhenOwnerDown(t *testing.T) {
	// A ring that names a dead peer: submissions owned by the corpse
	// must still be served (locally) — the ring degrades, it does not
	// refuse.
	front := httptest.NewServer(nil)
	defer front.Close()
	peers := []cluster.Peer{
		{ID: "s0", URL: front.URL},
		{ID: "s1", URL: "http://127.0.0.1:1"},
	}
	s, err := New(Options{
		Workers: 2, Memoize: true,
		Cluster: cluster.Config{Version: 1, Self: "s0", Peers: peers},
	})
	if err != nil {
		t.Fatal(err)
	}
	front.Config.Handler = s.Handler()

	req := reqOwnedBy(t, s, "s1")
	var acc map[string]any
	if code := doJSON(t, "POST", front.URL+"/v1/runs", req, &acc); code != http.StatusAccepted {
		t.Fatalf("submit with dead owner: HTTP %d", code)
	}
	id, _ := acc["id"].(string)
	if !strings.HasPrefix(id, "r-s0-") {
		t.Fatalf("fallback job id %q not minted locally", id)
	}
	if st := waitState(t, front.URL, id); st.State != stateDone {
		t.Fatalf("fallback run ended %s: %s", st.State, st.Error)
	}
	if got := s.clu.proxyFallbacks.Load(); got != 1 {
		t.Fatalf("proxy fallbacks = %d, want 1", got)
	}
}

func TestClusterLedgerGossipAdjustsCapacity(t *testing.T) {
	const clusterCap = 2.2e6
	servers, fronts := startCluster(t, 2, func(i int, o *Options) {
		o.CapacityBps = clusterCap
	})

	// Admit a program on s0; its mean bandwidth is s0's committed sum.
	var neg map[string]any
	if code := doJSON(t, "POST", fronts[0].URL+"/v1/qos/negotiate",
		NegotiateRequest{Program: "sor", Client: "t"}, &neg); code != http.StatusOK {
		t.Fatalf("negotiate: HTTP %d (%v)", code, neg)
	}
	_, committed, _, _ := servers[0].broker.snapshot()
	if committed <= 0 {
		t.Fatal("nothing committed on s0")
	}

	// One gossip round on s1 folds s0's commitment into its capacity.
	servers[1].gossipOnce()
	_, _, _, cap1 := servers[1].broker.snapshot()
	if want := clusterCap - committed; cap1 != want {
		t.Fatalf("s1 capacity after gossip = %g, want %g", cap1, want)
	}
	if up := servers[1].clu.ledger.PeersUp(); up != 1 {
		t.Fatalf("peers up = %d, want 1", up)
	}

	// Kill s0: its commitment stays reserved (conservative), liveness
	// flips.
	fronts[0].Close()
	servers[1].gossipOnce()
	_, _, _, cap1 = servers[1].broker.snapshot()
	if want := clusterCap - committed; cap1 != want {
		t.Fatalf("s1 capacity after peer death = %g, want %g (retained)", cap1, want)
	}
	if up := servers[1].clu.ledger.PeersUp(); up != 0 {
		t.Fatalf("peers up after death = %d, want 0", up)
	}
}

func TestClusterRingAndLedgerEndpoints(t *testing.T) {
	servers, fronts := startCluster(t, 2, nil)

	var ring map[string]any
	if code := doJSON(t, "GET", fronts[0].URL+"/v1/cluster/ring", nil, &ring); code != http.StatusOK {
		t.Fatalf("ring: HTTP %d", code)
	}
	if ring["self"] != "s0" || ring["version"] != float64(1) {
		t.Fatalf("ring payload %v", ring)
	}

	// The ?key oracle answers the same owner on every shard.
	req := reqOwnedBy(t, servers[0], "s1")
	cfg, _ := req.config()
	key := farm.Key(cfg)
	for _, f := range fronts {
		var look map[string]any
		if code := doJSON(t, "GET", f.URL+"/v1/cluster/ring?key="+key, nil, &look); code != http.StatusOK {
			t.Fatalf("ring lookup: HTTP %d", code)
		}
		if look["owner"] != "s1" {
			t.Fatalf("owner via %s = %v, want s1", f.URL, look["owner"])
		}
	}

	var led ledgerJSON
	if code := doJSON(t, "GET", fronts[1].URL+"/v1/cluster/ledger", nil, &led); code != http.StatusOK {
		t.Fatalf("ledger: HTTP %d", code)
	}
	if led.ID != "s1" || led.RingVersion != 1 {
		t.Fatalf("ledger payload %+v", led)
	}
}

func TestCacheEntryEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2, CacheDir: t.TempDir()})

	id := submit(t, ts.URL, cheapRun())
	st := waitState(t, ts.URL, id)
	if st.State != stateDone {
		t.Fatalf("run ended %s", st.State)
	}

	resp, err := http.Get(ts.URL + "/v1/cache/" + st.Key)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cache entry: HTTP %d", resp.StatusCode)
	}
	if !bytes.HasPrefix(body, []byte("FXFARM01")) {
		t.Fatalf("cache entry body starts %q, want the run magic", body[:8])
	}

	for path, want := range map[string]int{
		"/v1/cache/" + strings.Repeat("0", 64): http.StatusNotFound,
		"/v1/cache/..%2fescape":                http.StatusBadRequest,
		"/v1/cache/NOTHEX":                     http.StatusBadRequest,
		"/v1/cache/" + st.Key + "?kind=bogus":  http.StatusBadRequest,
	} {
		if code := doJSON(t, "GET", ts.URL+path, nil, nil); code != want {
			t.Errorf("GET %s: HTTP %d, want %d", path, code, want)
		}
	}
}

func TestClusterMetricsSurface(t *testing.T) {
	_, fronts := startCluster(t, 2, func(i int, o *Options) {
		o.CacheDir = t.TempDir()
	})
	body := fetchMetrics(t, fronts[0].URL)
	for _, m := range []string{
		"fxnetd_cluster_enabled 1",
		"fxnetd_cluster_ring_version 1",
		"fxnetd_cluster_peers 2",
		"fxnetd_cache_entries ",
		"fxnetd_cache_bytes ",
		"fxnetd_farm_peer_hits_total ",
		"fxnetd_farm_memo_evicted_total ",
		"fxnetd_cluster_fetch_total{outcome=\"hit\"} ",
		"fxnetd_cache_quarantined_kind_total{kind=\"run\"} ",
		"fxnetd_cache_quarantined_kind_total{kind=\"model\"} 0",
		"fxnetd_cache_store_failures_total 0",
	} {
		if !strings.Contains(body, m) {
			t.Errorf("metrics missing %q", m)
		}
	}
}
