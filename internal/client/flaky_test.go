package client

// Flaky-peer coverage: the retry layer against servers that are slow,
// drop connections mid-body, or shed with Retry-After — a node killed
// mid-response, one recovering its journal, one saturated — and the
// client must stay correct through all of them: bounded backoff,
// at-most-once unkeyed submits, exactly-once keyed submits.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// dropMidBody hijacks the connection, writes a partial response that
// promises more bytes than it delivers, and slams the connection — the
// shape of a server dying mid-response.
func dropMidBody(w http.ResponseWriter) {
	hj, ok := w.(http.Hijacker)
	if !ok {
		panic("test server does not support hijack")
	}
	conn, buf, err := hj.Hijack()
	if err != nil {
		panic(err)
	}
	buf.WriteString("HTTP/1.1 200 OK\r\nContent-Length: 1000\r\n\r\n{\"truncat")
	buf.Flush()
	conn.Close()
}

// A GET whose first responses die mid-body is retried until a whole
// response arrives.
func TestRetryGetAfterMidBodyDisconnect(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) < 3 {
			dropMidBody(w)
			return
		}
		w.Write([]byte(`{"ok":true}`))
	}))
	defer ts.Close()

	c := New(ts.URL)
	c.Retry = fastPolicy()
	resp, err := c.Do(context.Background(), http.MethodGet, "/x", nil, http.Header{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != http.StatusOK || resp.Attempts != 3 {
		t.Fatalf("status %d attempts %d, want 200 after 3", resp.Status, resp.Attempts)
	}
	if !strings.Contains(string(resp.Body), `"ok"`) {
		t.Fatalf("final body %q is not the complete response", resp.Body)
	}
}

// An unkeyed POST that dies mid-body must NOT be retried — a transport
// error after the server may have acted is exactly the ambiguous case
// the single-attempt rule exists for.
func TestUnkeyedPostNotRetriedOnDisconnect(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		dropMidBody(w)
	}))
	defer ts.Close()

	c := New(ts.URL)
	c.Retry = fastPolicy()
	_, err := c.Do(context.Background(), http.MethodPost, "/v1/runs", []byte(`{}`), http.Header{})
	if err == nil {
		t.Fatal("expected an error from the truncated response")
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("unkeyed POST sent %d times after disconnect, want 1", n)
	}
}

// A keyed submit whose accept response is lost retries under the same
// key and lands on the originally accepted job: the server dedups, the
// client sees the first job's ID.
func TestKeyedSubmitDedupsAcrossLostResponse(t *testing.T) {
	var (
		mu     sync.Mutex
		seen   = map[string]string{} // idempotency key → job ID
		nextID int
		calls  []string
	)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		key := r.Header.Get(IdempotencyKeyHeader)
		mu.Lock()
		calls = append(calls, key)
		id, dup := seen[key]
		if !dup {
			nextID++
			id = fmt.Sprintf("r-%08d", nextID)
			seen[key] = id
		}
		first := len(calls) == 1
		mu.Unlock()
		if first {
			// The job is committed server-side but the 202 never arrives.
			dropMidBody(w)
			return
		}
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(map[string]any{"id": id, "state": "queued", "idempotent_replay": dup})
	}))
	defer ts.Close()

	c := New(ts.URL)
	c.Retry = fastPolicy()
	body := []byte(`{"program":"sor","p":4,"n":32,"iters":4,"seed":1}`)
	acc, err := c.Submit(context.Background(), body)
	if err != nil {
		t.Fatal(err)
	}
	if acc.ID != "r-00000001" {
		t.Fatalf("retried submit landed on %q, want the originally accepted r-00000001", acc.ID)
	}
	if !acc.IdempotentReplay {
		t.Fatal("server saw a fresh job on retry; the key did not dedup")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(calls) != 2 || calls[0] != calls[1] || calls[0] == "" {
		t.Fatalf("attempt keys %q, want the same non-empty key twice", calls)
	}
}

// A slow peer inside the deadline just makes the call slow; one past the
// deadline fails with the context error instead of hanging.
func TestSlowPeerBoundedByDeadline(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-time.After(150 * time.Millisecond):
		case <-r.Context().Done():
			return
		}
		w.Write([]byte(`{"ok":true}`))
	}))
	defer ts.Close()

	c := New(ts.URL)
	c.Retry = Policy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond, Deadline: 5 * time.Second}
	resp, err := c.Do(context.Background(), http.MethodGet, "/x", nil, http.Header{})
	if err != nil || resp.Status != http.StatusOK || resp.Attempts != 1 {
		t.Fatalf("slow-but-alive peer: resp %+v err %v, want one successful attempt", resp, err)
	}

	c.Retry.Deadline = 30 * time.Millisecond
	t0 := time.Now()
	_, err = c.Do(context.Background(), http.MethodGet, "/x", nil, http.Header{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err %v, want context.DeadlineExceeded", err)
	}
	if el := time.Since(t0); el > time.Second {
		t.Fatalf("deadline did not bound the slow peer: took %v", el)
	}
}

// A shedding peer's Retry-After is honored but clamped to MaxDelay: 4
// attempts against "Retry-After: 5" must finish in milliseconds, not 15
// seconds. This is what keeps a load generator from parking on a
// recovering node.
func TestRetryAfterClampBoundsTotalWait(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Retry-After", "5")
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	c := New(ts.URL)
	c.Retry = Policy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 20 * time.Millisecond, Deadline: 5 * time.Second}
	t0 := time.Now()
	resp, err := c.Do(context.Background(), http.MethodGet, "/x", nil, http.Header{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != http.StatusServiceUnavailable || resp.Attempts != 4 {
		t.Fatalf("status %d attempts %d, want 503 after 4", resp.Status, resp.Attempts)
	}
	if el := time.Since(t0); el > 2*time.Second {
		t.Fatalf("3 clamped waits took %v; Retry-After clamp is not applied", el)
	}
	if n := calls.Load(); n != 4 {
		t.Fatalf("server saw %d calls, want 4", n)
	}
}

// The full gauntlet: a peer that sheds, then dies mid-body, then is
// slow, then answers. One keyed submit must survive the sequence and
// still dedup to a single job.
func TestKeyedSubmitSurvivesFlakySequence(t *testing.T) {
	var calls atomic.Int64
	var created atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch calls.Add(1) {
		case 1:
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusServiceUnavailable)
		case 2:
			dropMidBody(w)
		default:
			time.Sleep(20 * time.Millisecond)
			if created.Add(1) > 1 {
				t.Error("more than one job created for one keyed submit")
			}
			w.WriteHeader(http.StatusAccepted)
			json.NewEncoder(w).Encode(map[string]any{"id": "r-00000042", "state": "queued"})
		}
	}))
	defer ts.Close()

	c := New(ts.URL)
	c.Retry = Policy{MaxAttempts: 5, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond, Deadline: 5 * time.Second}
	acc, err := c.Submit(context.Background(), []byte(`{"program":"sor","p":2}`))
	if err != nil {
		t.Fatal(err)
	}
	if acc.ID != "r-00000042" {
		t.Fatalf("id %q", acc.ID)
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("server saw %d attempts, want 3 (shed, disconnect, accept)", n)
	}
}
