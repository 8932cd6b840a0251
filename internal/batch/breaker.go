package batch

import (
	"errors"
	"sync"
	"time"

	"repro/internal/obs"
)

// Metric names emitted by the circuit breaker; the full catalog lives
// in README.md ("Observability").
const (
	metricBreakerState       = "mqo_breaker_state"
	metricBreakerTransitions = "mqo_breaker_transitions_total"
	metricBreakerRejections  = "mqo_breaker_rejections_total"
)

// ErrCircuitOpen marks requests rejected because the circuit breaker
// was open: the backend is presumed down, so the caller fails fast
// instead of queuing more doomed calls behind it. The replica pool
// returns it when every replica is ejected; the executor then gives up
// at once, without retry or backoff.
var ErrCircuitOpen = errors.New("batch: circuit breaker open")

// BreakerConfig configures a circuit breaker guarding one backend (the
// replica pool runs one per replica slot). The zero value disables the
// breaker entirely.
type BreakerConfig struct {
	// Threshold is the number of consecutive transient failures
	// (timeouts, 5xx/429, transport errors) that opens the circuit;
	// 0 disables the breaker.
	Threshold int
	// Cooldown is how long the circuit stays open before a probe
	// request is let through (default 30s).
	Cooldown time.Duration
	// HalfOpenProbes is the number of consecutive probe successes
	// required to close an open circuit again (default 1).
	HalfOpenProbes int
}

// BreakerState is the circuit's position.
type BreakerState int

const (
	// BreakerClosed passes every request through (healthy backend).
	BreakerClosed BreakerState = iota
	// BreakerOpen rejects every request until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen admits probe requests one at a time; their
	// outcomes decide between closing and re-opening.
	BreakerHalfOpen
)

// String implements fmt.Stringer.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half_open"
	default:
		return "unknown"
	}
}

// Breaker is the classic three-state circuit breaker. All transitions
// happen under the mutex; the clock is injectable for tests. The
// replica pool runs one Breaker per replica slot; it is the only
// breaker on the path from the batch executor to a predictor.
type Breaker struct {
	cfg    BreakerConfig
	rec    obs.Recorder
	now    func() time.Time
	labels []string // static metric labels (e.g. replica id)

	mu        sync.Mutex
	state     BreakerState
	failures  int // consecutive transient failures while closed
	successes int // consecutive probe successes while half-open
	probing   bool
	openedAt  time.Time
}

// NewBreaker returns nil when the config disables the breaker; callers
// keep the nil check (as the pool does). labels are static
// alternating key/value pairs appended to every metric the breaker
// emits, so several breakers (one per pool replica) stay
// distinguishable in one registry.
func NewBreaker(cfg BreakerConfig, rec obs.Recorder, labels ...string) *Breaker {
	if cfg.Threshold <= 0 {
		return nil
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 30 * time.Second
	}
	if cfg.HalfOpenProbes <= 0 {
		cfg.HalfOpenProbes = 1
	}
	return &Breaker{cfg: cfg, rec: obs.Active(rec), now: time.Now, labels: labels}
}

// transition moves the breaker to a new state and emits the metrics.
// Caller holds the mutex.
func (b *Breaker) transition(to BreakerState) {
	b.state = to
	b.rec.Set(metricBreakerState, float64(to), b.labels...)
	b.rec.Add(metricBreakerTransitions, 1, append([]string{"to", to.String()}, b.labels...)...)
}

// State reports the recorded position. It does not resolve an elapsed
// cooldown: an open breaker stays BreakerOpen here until the next Allow
// admits a probe and moves it to BreakerHalfOpen (Ready reports whether
// that would happen).
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Allow decides whether a request may reach the predictor. It returns
// ErrCircuitOpen for requests rejected while the circuit is open (or
// while a half-open probe is already in flight).
func (b *Breaker) Allow() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return nil
	case BreakerOpen:
		if b.now().Sub(b.openedAt) < b.cfg.Cooldown {
			b.rec.Add(metricBreakerRejections, 1, b.labels...)
			return ErrCircuitOpen
		}
		// Cooldown over: admit this request as the first probe.
		b.transition(BreakerHalfOpen)
		b.successes = 0
		b.probing = true
		return nil
	default: // half-open
		if b.probing {
			b.rec.Add(metricBreakerRejections, 1, b.labels...)
			return ErrCircuitOpen
		}
		b.probing = true
		return nil
	}
}

// Ready reports whether a request offered right now would plausibly be
// admitted, without admitting one: closed always, open only once the
// cooldown has elapsed (the next Allow would start a probe), half-open
// only while no probe is in flight. Unlike Allow it reserves no probe
// slot and emits no rejection metric, so routing layers can *rank*
// replicas by readiness cheaply and leave admission — with its side
// effects — to the one Allow call on the replica they actually chose.
func (b *Breaker) Ready() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		return b.now().Sub(b.openedAt) >= b.cfg.Cooldown
	default: // half-open
		return !b.probing
	}
}

// Cancel releases an admitted request without judging the backend:
// the call never completed for a reason unrelated to backend health
// (batch canceled, client-side 4xx). A half-open probe slot is freed
// so the next request can probe instead.
func (b *Breaker) Cancel() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerHalfOpen {
		b.probing = false
	}
}

// Report feeds one predictor-call outcome back into the state machine.
// Only transient failures count toward opening: a 4xx client error is
// the request's fault, not the backend's, and must not trip the
// circuit (callers skip report for those).
func (b *Breaker) Report(success bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		if success {
			b.failures = 0
			return
		}
		b.failures++
		if b.failures >= b.cfg.Threshold {
			b.transition(BreakerOpen)
			b.openedAt = b.now()
			b.failures = 0
		}
	case BreakerHalfOpen:
		b.probing = false
		if !success {
			b.transition(BreakerOpen)
			b.openedAt = b.now()
			b.successes = 0
			return
		}
		b.successes++
		if b.successes >= b.cfg.HalfOpenProbes {
			b.transition(BreakerClosed)
			b.failures = 0
		}
	default:
		// A straggler reporting after the circuit re-opened; consecutive
		// bookkeeping restarts at the next transition.
	}
}
