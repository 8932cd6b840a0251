package pool

import (
	"sync"
	"time"

	"repro/internal/llm"
	"repro/internal/obs"
)

// Metric names emitted by the per-replica circuit breakers; the full
// catalog lives in README.md ("Observability").
const (
	metricBreakerState       = "mqo_breaker_state"
	metricBreakerTransitions = "mqo_breaker_transitions_total"
	metricBreakerRejections  = "mqo_breaker_rejections_total"
)

// BreakerConfig configures the circuit breaker guarding each replica
// slot. The zero value disables the breakers entirely.
type BreakerConfig struct {
	// Threshold is the number of consecutive transient failures
	// (timeouts, 5xx/429, transport errors) that opens the circuit;
	// 0 disables the breaker.
	Threshold int
	// Cooldown is how long the circuit stays open before a probe
	// request is let through (default 30s). One probe success closes
	// the circuit again; one probe failure re-opens it.
	Cooldown time.Duration
}

// breakerState is the circuit's position. The values are the
// mqo_breaker_state gauge's readings.
type breakerState int

const (
	// breakerClosed passes every request through (healthy backend).
	breakerClosed breakerState = iota
	// breakerOpen rejects every request until the cooldown elapses.
	breakerOpen
	// breakerHalfOpen admits one probe request at a time; its outcome
	// decides between closing and re-opening.
	breakerHalfOpen
)

// String implements fmt.Stringer; it labels the transitions metric.
func (s breakerState) String() string {
	switch s {
	case breakerClosed:
		return "closed"
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half_open"
	default:
		return "unknown"
	}
}

// breaker is the classic three-state circuit breaker of one replica
// slot. All transitions happen under the mutex; the clock is injectable
// for tests.
type breaker struct {
	cfg    BreakerConfig
	rec    obs.Recorder
	now    func() time.Time
	labels []string // static metric labels (the replica id)

	mu       sync.Mutex
	st       breakerState
	failures int // consecutive transient failures while closed
	probing  bool
	openedAt time.Time
}

// newBreaker returns nil when the config disables the breaker; the
// pool keeps the nil check. labels are static alternating key/value
// pairs appended to every metric the breaker emits, so the breakers of
// one pool stay distinguishable in one registry.
func newBreaker(cfg BreakerConfig, rec obs.Recorder, labels ...string) *breaker {
	if cfg.Threshold <= 0 {
		return nil
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 30 * time.Second
	}
	return &breaker{cfg: cfg, rec: obs.Active(rec), now: time.Now, labels: labels}
}

// transition moves the breaker to a new state and emits the metrics.
// Caller holds the mutex.
func (b *breaker) transition(to breakerState) {
	b.st = to
	b.rec.Set(metricBreakerState, float64(to), b.labels...)
	b.rec.Add(metricBreakerTransitions, 1, append([]string{"to", to.String()}, b.labels...)...)
}

// state reports the recorded position. It does not resolve an elapsed
// cooldown: an open breaker stays breakerOpen here until the next allow
// admits a probe and moves it to breakerHalfOpen (ready reports whether
// that would happen).
func (b *breaker) state() breakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.st
}

// allow decides whether a request may reach the replica. It returns
// llm.ErrCircuitOpen for requests rejected while the circuit is open
// (or while a half-open probe is already in flight).
func (b *breaker) allow() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.st {
	case breakerClosed:
		return nil
	case breakerOpen:
		if b.now().Sub(b.openedAt) < b.cfg.Cooldown {
			b.rec.Add(metricBreakerRejections, 1, b.labels...)
			return llm.ErrCircuitOpen
		}
		// Cooldown over: admit this request as the probe.
		b.transition(breakerHalfOpen)
		b.probing = true
		return nil
	default: // half-open
		if b.probing {
			b.rec.Add(metricBreakerRejections, 1, b.labels...)
			return llm.ErrCircuitOpen
		}
		b.probing = true
		return nil
	}
}

// ready reports whether a request offered right now would plausibly be
// admitted, without admitting one: closed always, open only once the
// cooldown has elapsed (the next allow would start a probe), half-open
// only while no probe is in flight. Unlike allow it reserves no probe
// slot and emits no rejection metric, so routing can rank replicas by
// readiness cheaply and leave admission — with its side effects — to
// the one allow call on the replica it actually chose.
func (b *breaker) ready() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.st {
	case breakerClosed:
		return true
	case breakerOpen:
		return b.now().Sub(b.openedAt) >= b.cfg.Cooldown
	default: // half-open
		return !b.probing
	}
}

// cancel releases an admitted request without judging the backend:
// the call never completed for a reason unrelated to backend health
// (hedge loser, caller gave up, client-side 4xx). A half-open probe
// slot is freed so the next request can probe instead.
func (b *breaker) cancel() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.st == breakerHalfOpen {
		b.probing = false
	}
}

// report feeds one completed call's outcome back into the state
// machine. Only transient failures count toward opening: a 4xx client
// error is the request's fault, not the backend's, and must not trip
// the circuit (the pool cancels instead of reporting those).
func (b *breaker) report(success bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.st {
	case breakerClosed:
		if success {
			b.failures = 0
			return
		}
		b.failures++
		if b.failures >= b.cfg.Threshold {
			b.transition(breakerOpen)
			b.openedAt = b.now()
			b.failures = 0
		}
	case breakerHalfOpen:
		b.probing = false
		if !success {
			b.transition(breakerOpen)
			b.openedAt = b.now()
			return
		}
		b.transition(breakerClosed)
		b.failures = 0
	default:
		// A straggler reporting after the circuit re-opened; consecutive
		// bookkeeping restarts at the next transition.
	}
}
