package pool

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/llm"
)

// clockBreaker returns a breaker with a settable fake clock.
func clockBreaker(t *testing.T, cfg BreakerConfig) (*breaker, *time.Time) {
	t.Helper()
	b := newBreaker(cfg, nil)
	if b == nil {
		t.Fatalf("breaker disabled by config %+v", cfg)
	}
	now := time.Unix(1000, 0)
	b.now = func() time.Time { return now }
	return b, &now
}

func TestBreakerOpensAfterThreshold(t *testing.T) {
	b, _ := clockBreaker(t, BreakerConfig{Threshold: 3, Cooldown: time.Minute})
	for i := 0; i < 2; i++ {
		if err := b.allow(); err != nil {
			t.Fatalf("closed breaker rejected request %d: %v", i, err)
		}
		b.report(false)
		if b.state() != breakerClosed {
			t.Fatalf("opened after %d failures, threshold 3", i+1)
		}
	}
	// A success resets the consecutive count.
	b.report(true)
	b.report(false)
	b.report(false)
	if b.state() != breakerClosed {
		t.Fatal("opened although success reset the failure streak")
	}
	b.report(false)
	if b.state() != breakerOpen {
		t.Fatal("did not open at 3 consecutive failures")
	}
	if err := b.allow(); !errors.Is(err, llm.ErrCircuitOpen) {
		t.Fatalf("open breaker admitted a request: %v", err)
	}
}

func TestBreakerHalfOpenAdmitsOneProbe(t *testing.T) {
	b, now := clockBreaker(t, BreakerConfig{Threshold: 1, Cooldown: time.Minute})
	b.report(false)
	if b.state() != breakerOpen {
		t.Fatal("threshold 1 did not open on first failure")
	}
	// Before the cooldown: still rejecting.
	*now = now.Add(30 * time.Second)
	if err := b.allow(); !errors.Is(err, llm.ErrCircuitOpen) {
		t.Fatalf("admitted during cooldown, got %v", err)
	}
	// After the cooldown: one probe admitted, concurrent requests still
	// rejected while it is in flight.
	*now = now.Add(31 * time.Second)
	if err := b.allow(); err != nil {
		t.Fatalf("post-cooldown probe rejected: %v", err)
	}
	if b.state() != breakerHalfOpen {
		t.Fatalf("state %v, want half-open", b.state())
	}
	if err := b.allow(); !errors.Is(err, llm.ErrCircuitOpen) {
		t.Fatalf("second in-flight probe admitted: %v", err)
	}
	// One probe success closes the circuit.
	b.report(true)
	if b.state() != breakerClosed {
		t.Fatalf("state %v after a successful probe, want closed", b.state())
	}
}

func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	b, now := clockBreaker(t, BreakerConfig{Threshold: 1, Cooldown: time.Second})
	b.report(false)
	*now = now.Add(2 * time.Second)
	if err := b.allow(); err != nil {
		t.Fatalf("probe rejected: %v", err)
	}
	b.report(false)
	if b.state() != breakerOpen {
		t.Fatal("failed probe did not reopen the circuit")
	}
	// The fresh open period starts at the probe failure, not the
	// original trip.
	if err := b.allow(); !errors.Is(err, llm.ErrCircuitOpen) {
		t.Fatalf("reopened breaker admitted a request: %v", err)
	}
}

func TestBreakerCancelFreesProbeSlot(t *testing.T) {
	b, now := clockBreaker(t, BreakerConfig{Threshold: 1, Cooldown: time.Second})
	b.report(false)
	*now = now.Add(2 * time.Second)
	if err := b.allow(); err != nil {
		t.Fatalf("probe rejected: %v", err)
	}
	// The probe is aborted for reasons unrelated to backend health; the
	// slot must free up or the breaker deadlocks in half-open forever.
	b.cancel()
	if err := b.allow(); err != nil {
		t.Fatalf("slot not freed after cancel: %v", err)
	}
	b.report(true)
	if b.state() != breakerClosed {
		t.Fatalf("state %v after successful probe, want closed", b.state())
	}
}

func TestBreakerConcurrentRace(t *testing.T) {
	// Hammer one breaker from many goroutines; run with -race.
	b := newBreaker(BreakerConfig{Threshold: 3, Cooldown: time.Microsecond}, nil)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				if err := b.allow(); err == nil {
					switch j % 3 {
					case 0:
						b.report(true)
					case 1:
						b.report(false)
					default:
						b.cancel()
					}
				}
				_ = b.state()
			}
		}(i)
	}
	wg.Wait()
	if s := b.state(); s != breakerClosed && s != breakerOpen && s != breakerHalfOpen {
		t.Fatalf("invalid final state %v", s)
	}
}
