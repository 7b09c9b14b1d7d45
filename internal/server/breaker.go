package server

import (
	"sync"
	"time"
)

// Breaker states. The breaker guards farm execution: a farm that fails
// every job it is handed (corrupt install, exhausted disk, a simulator
// bug tripping on one input class) should shed new submissions fast
// instead of queuing work it will burn a worker slot to fail.
const (
	breakerClosed = iota
	breakerHalfOpen
	breakerOpen
)

// breaker is a consecutive-failure circuit breaker. Closed admits
// everything; failThreshold consecutive real failures (cancellations do
// not count — the client changed its mind, the farm did not misbehave)
// open it; after cooldown it half-opens and admits a single probe whose
// outcome decides between closing and re-opening.
type breaker struct {
	failThreshold int
	cooldown      time.Duration
	// now is injectable for tests.
	now func() time.Time

	mu          sync.Mutex
	state       int
	consecutive int
	openedAt    time.Time
	probing     bool
	openedTotal int64
}

// The server's breaker: five consecutive failures open it for five
// seconds.
const (
	breakerThreshold = 5
	breakerCooldown  = 5 * time.Second
)

func newBreaker(failThreshold int, cooldown time.Duration) *breaker {
	return &breaker{failThreshold: failThreshold, cooldown: cooldown, now: time.Now}
}

// allow reports whether a new submission may proceed. In the half-open
// state exactly one in-flight probe is admitted at a time.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if b.now().Sub(b.openedAt) < b.cooldown {
			return false
		}
		b.state = breakerHalfOpen
		b.probing = true
		return true
	default: // half-open
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// abandon gives back the half-open probe slot of a submission that ended
// without a verdict: an idempotent replay (no job), a journal refusal,
// or a cancelled job. Without it the breaker would stay half-open with
// its one probe spent and refuse every later submit. A cancellation
// that was not the probe frees the slot too; at worst that admits a
// second probe, whose verdict counts like the first's.
func (b *breaker) abandon() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerHalfOpen {
		b.probing = false
	}
}

// success reports a job that completed without a farm error.
func (b *breaker) success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consecutive = 0
	b.state = breakerClosed
	b.probing = false
}

// failure reports a farm execution failure.
func (b *breaker) failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consecutive++
	if b.state == breakerHalfOpen || b.consecutive >= b.failThreshold {
		if b.state != breakerOpen {
			b.openedTotal++
		}
		b.state = breakerOpen
		b.openedAt = b.now()
		b.probing = false
	}
}

// snapshot reports (state, times opened) for /metrics.
func (b *breaker) snapshot() (int, int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state, b.openedTotal
}

func breakerStateName(s int) string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}
