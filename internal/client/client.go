// Package client is the shared fxnetd client used by fxload and other
// tooling. It wraps net/http with the retry discipline a crash-safe
// server makes worthwhile: capped exponential backoff with full jitter,
// an overall per-call deadline, Retry-After honor on 429/503, and
// content-addressed idempotency keys so a retried submit lands on the
// originally accepted job instead of creating a duplicate.
//
// Only requests that are safe to repeat are retried: all GETs, and
// POSTs that carry an Idempotency-Key (a keyed submit is exactly-once
// server-side, so re-sending it is free). An unkeyed POST gets one
// attempt — the caller cannot know whether a timed-out submit was
// accepted.
package client

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// IdempotencyKeyHeader mirrors server.IdempotencyKeyHeader without
// importing the server package into client binaries.
const IdempotencyKeyHeader = "Idempotency-Key"

// Policy bounds the retry loop. Zero values take the defaults noted on
// each field.
type Policy struct {
	MaxAttempts int           // total tries including the first (default 4)
	BaseDelay   time.Duration // first backoff step (default 50ms)
	MaxDelay    time.Duration // backoff cap and Retry-After clamp (default 2s)
	Deadline    time.Duration // overall per-call budget (default 30s)
}

func (p Policy) withDefaults() Policy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	if p.Deadline <= 0 {
		p.Deadline = 30 * time.Second
	}
	return p
}

// Client talks to one fxnetd base URL. Safe for concurrent use.
type Client struct {
	Base     string       // e.g. "http://127.0.0.1:8080", no trailing slash
	ClientID string       // X-Client-ID value; empty = header omitted
	HTTP     *http.Client // default: shared transport, no client timeout (Policy.Deadline governs)
	Retry    Policy

	rngMu sync.Mutex
	rng   *rand.Rand
}

// New returns a client with the default retry policy.
func New(base string) *Client {
	return &Client{Base: base, HTTP: &http.Client{}}
}

// Response is the terminal outcome of a (possibly retried) call.
type Response struct {
	Status   int
	Body     []byte
	Attempts int // how many HTTP requests were sent
}

// retryable reports whether a status code is worth another attempt:
// throttling and the server's transient refusals (shedding, draining,
// recovering, breaker-open, journal unavailable) all surface as 429/503,
// and 502/504 cover intermediaries.
func retryable(status int) bool {
	switch status {
	case http.StatusTooManyRequests,
		http.StatusBadGateway,
		http.StatusServiceUnavailable,
		http.StatusGatewayTimeout:
		return true
	}
	return false
}

// backoff returns the sleep before attempt n (0-based for the first
// retry), using full jitter over an exponentially growing cap, clamped
// by MaxDelay. A server-provided Retry-After (seconds) overrides the
// exponential schedule but is still clamped.
func (c *Client) backoff(p Policy, n int, retryAfter string) time.Duration {
	if retryAfter != "" {
		if secs, err := strconv.Atoi(retryAfter); err == nil && secs >= 0 {
			d := time.Duration(secs) * time.Second
			if d > p.MaxDelay {
				d = p.MaxDelay
			}
			return d
		}
	}
	ceil := p.BaseDelay << uint(n)
	if ceil > p.MaxDelay || ceil <= 0 {
		ceil = p.MaxDelay
	}
	c.rngMu.Lock()
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	d := time.Duration(c.rng.Int63n(int64(ceil) + 1))
	c.rngMu.Unlock()
	return d
}

// Do issues method path with body, retrying per the policy when the
// request is idempotent (GET, or any request with an Idempotency-Key in
// hdr). The context bounds the whole call in addition to
// Policy.Deadline; body is re-sent from the start on each attempt.
func (c *Client) Do(ctx context.Context, method, path string, body []byte, hdr http.Header) (*Response, error) {
	p := c.Retry.withDefaults()
	ctx, cancel := context.WithTimeout(ctx, p.Deadline)
	defer cancel()

	idempotent := method == http.MethodGet || method == http.MethodDelete ||
		hdr.Get(IdempotencyKeyHeader) != ""
	attempts := p.MaxAttempts
	if !idempotent {
		attempts = 1
	}

	hc := c.HTTP
	if hc == nil {
		hc = http.DefaultClient
	}
	var lastErr error
	for n := 0; n < attempts; n++ {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.Base+path, rd)
		if err != nil {
			return nil, err
		}
		for k, vs := range hdr {
			req.Header[k] = vs
		}
		if body != nil && req.Header.Get("Content-Type") == "" {
			req.Header.Set("Content-Type", "application/json")
		}
		if c.ClientID != "" {
			req.Header.Set("X-Client-ID", c.ClientID)
		}

		resp, err := hc.Do(req)
		var retryAfter string
		if err == nil {
			b, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr == nil && !retryable(resp.StatusCode) {
				return &Response{Status: resp.StatusCode, Body: b, Attempts: n + 1}, nil
			}
			if rerr != nil {
				lastErr = rerr
			} else {
				lastErr = fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, truncate(b))
				retryAfter = resp.Header.Get("Retry-After")
				if n == attempts-1 {
					// Out of attempts: hand the caller the response rather
					// than burying the status in an error string.
					return &Response{Status: resp.StatusCode, Body: b, Attempts: n + 1}, nil
				}
			}
		} else {
			lastErr = err
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
		}

		if n == attempts-1 {
			break
		}
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("%w (last error: %v)", ctx.Err(), lastErr)
		case <-time.After(c.backoff(p, n, retryAfter)):
		}
	}
	return nil, lastErr
}

func truncate(b []byte) string {
	const max = 200
	if len(b) > max {
		return string(b[:max]) + "..."
	}
	return string(b)
}

// Accepted is the submit acknowledgement (202 payload).
type Accepted struct {
	ID               string `json:"id"`
	Key              string `json:"key"`
	State            string `json:"state"`
	IdempotentReplay bool   `json:"idempotent_replay"`
}

// IdempotencyKey derives a content-addressed submit token from the
// request body: identical configurations map to the same key, so a
// retried — or even re-issued — submit of the same work dedups
// server-side across crashes.
func IdempotencyKey(body []byte) string {
	sum := sha256.Sum256(body)
	return "sha256-" + hex.EncodeToString(sum[:16])
}

// Submit posts a run request with a content-addressed Idempotency-Key,
// making the call safe to retry. Non-202 terminal statuses come back as
// errors.
func (c *Client) Submit(ctx context.Context, runReq []byte) (*Accepted, error) {
	hdr := http.Header{}
	hdr.Set(IdempotencyKeyHeader, IdempotencyKey(runReq))
	resp, err := c.Do(ctx, http.MethodPost, "/v1/runs", runReq, hdr)
	if err != nil {
		return nil, err
	}
	if resp.Status != http.StatusAccepted {
		return nil, fmt.Errorf("submit: status %d: %s", resp.Status, truncate(resp.Body))
	}
	var acc Accepted
	if err := json.Unmarshal(resp.Body, &acc); err != nil {
		return nil, fmt.Errorf("submit: bad accept payload: %w", err)
	}
	if acc.ID == "" {
		return nil, errors.New("submit: accept payload missing id")
	}
	return &acc, nil
}

// Status is the poll payload subset tooling needs.
type Status struct {
	ID       string `json:"id"`
	State    string `json:"state"`
	Cached   bool   `json:"cached"`
	Deduped  bool   `json:"deduped"`
	RunError string `json:"run_error"`
}

// Poll fetches the current state of a run.
func (c *Client) Poll(ctx context.Context, id string) (*Status, error) {
	resp, err := c.Do(ctx, http.MethodGet, "/v1/runs/"+id, nil, http.Header{})
	if err != nil {
		return nil, err
	}
	if resp.Status != http.StatusOK {
		return nil, fmt.Errorf("poll %s: status %d: %s", id, resp.Status, truncate(resp.Body))
	}
	var st Status
	if err := json.Unmarshal(resp.Body, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// WaitDone polls until the run reaches a terminal state or the context
// expires. It returns the final status; a "failed" or "cancelled" run is
// not an error at this layer — callers decide.
func (c *Client) WaitDone(ctx context.Context, id string, interval time.Duration) (*Status, error) {
	if interval <= 0 {
		interval = 25 * time.Millisecond
	}
	for {
		st, err := c.Poll(ctx, id)
		if err != nil {
			return nil, err
		}
		switch st.State {
		case "done", "failed", "cancelled":
			return st, nil
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(interval):
		}
	}
}

// FitModel posts a model-fit request (raw JSON body for
// POST /v1/models/fit) with a content-addressed Idempotency-Key, so a
// retried fit lands on the originally accepted job.
func (c *Client) FitModel(ctx context.Context, fitReq []byte) (*Accepted, error) {
	hdr := http.Header{}
	hdr.Set(IdempotencyKeyHeader, IdempotencyKey(fitReq))
	resp, err := c.Do(ctx, http.MethodPost, "/v1/models/fit", fitReq, hdr)
	if err != nil {
		return nil, err
	}
	if resp.Status != http.StatusAccepted {
		return nil, fmt.Errorf("fit: status %d: %s", resp.Status, truncate(resp.Body))
	}
	var acc Accepted
	if err := json.Unmarshal(resp.Body, &acc); err != nil {
		return nil, fmt.Errorf("fit: bad accept payload: %w", err)
	}
	if acc.ID == "" {
		return nil, errors.New("fit: accept payload missing id")
	}
	return &acc, nil
}
