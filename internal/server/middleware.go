package server

import (
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// statusRecorder captures the status code a handler writes.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the underlying writer so the NDJSON streamers keep
// their incremental delivery through the middleware wrapper.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// clientLimiter bounds in-flight API requests per client. A client is
// the X-Client-ID header when present, else the peer address without its
// port — the paper-shaped analogue of per-host fairness on the shared
// segment.
type clientLimiter struct {
	limit int
	mu    sync.Mutex
	live  map[string]int
}

func newClientLimiter(limit int) *clientLimiter {
	return &clientLimiter{limit: limit, live: make(map[string]int)}
}

func clientKey(r *http.Request) string {
	if id := r.Header.Get("X-Client-ID"); id != "" {
		return id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// acquire admits the request or reports rejection. release must be
// called exactly once after an admitted request finishes.
func (l *clientLimiter) acquire(key string) bool {
	if l.limit <= 0 {
		return true
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.live[key] >= l.limit {
		return false
	}
	l.live[key]++
	return true
}

func (l *clientLimiter) release(key string) {
	if l.limit <= 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.live[key] <= 1 {
		delete(l.live, key)
	} else {
		l.live[key]--
	}
}

// requestIDHeader carries the ID every log line of a request is tagged
// with (req=…); the response echoes it, so a client can find its
// request's line.
const requestIDHeader = "X-Request-ID"

// validRequestID reports whether an inbound ID is safe to adopt, log
// and echo: [0-9A-Za-z._-]{1,64}. (Spelled out, not a regexp: the
// compiled 64-fold repetition alone is ~26 KB of retained heap.)
func validRequestID(id string) bool {
	if len(id) == 0 || len(id) > 64 {
		return false
	}
	for _, c := range []byte(id) {
		if !(c >= '0' && c <= '9' || c >= 'A' && c <= 'Z' || c >= 'a' && c <= 'z' || c == '.' || c == '_' || c == '-') {
			return false
		}
	}
	return true
}

// instrument wraps an endpoint handler with the ops surface: request-ID
// assignment and logging, latency/status metrics, load shedding by
// endpoint class, and (for limited endpoints) per-client concurrency
// backpressure with 429 + Retry-After.
func (s *Server) instrument(endpoint string, limited bool, shedClass int, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		// One ID names a request from the client's header to the log
		// line: adopt a well-formed inbound one, mint otherwise (never
		// echo junk).
		reqID := r.Header.Get(requestIDHeader)
		if !validRequestID(reqID) {
			reqID = fmt.Sprintf("%08x", s.reqSeq.Add(1))
		}
		w.Header().Set(requestIDHeader, reqID)

		if !s.shedder.admit(shedClass) {
			w.Header().Set("Retry-After", "2")
			http.Error(w, "overloaded: load shedding "+shedClassName(shedClass)+" traffic", http.StatusServiceUnavailable)
			s.metrics.record(endpoint, strconv.Itoa(http.StatusServiceUnavailable), time.Since(start).Seconds())
			s.logf("req=%s %s %s -> 503 shed (%s)", reqID, r.Method, r.URL.Path, shedClassName(shedClass))
			return
		}

		if limited {
			key := clientKey(r)
			if !s.limiter.acquire(key) {
				s.metrics.throttled.Add(1)
				w.Header().Set("Retry-After", "1")
				http.Error(w, "too many in-flight requests for this client", http.StatusTooManyRequests)
				s.metrics.record(endpoint, strconv.Itoa(http.StatusTooManyRequests), time.Since(start).Seconds())
				s.logf("req=%s client=%s %s %s -> 429 (%.1fms)", reqID, key, r.Method, r.URL.Path,
					float64(time.Since(start).Microseconds())/1000)
				return
			}
			defer s.limiter.release(key)
		}

		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h(rec, r)
		elapsed := time.Since(start)
		s.metrics.record(endpoint, strconv.Itoa(rec.status), elapsed.Seconds())
		s.logf("req=%s client=%s %s %s -> %d (%.1fms)", reqID, clientKey(r), r.Method, r.URL.Path,
			rec.status, float64(elapsed.Microseconds())/1000)
	}
}
