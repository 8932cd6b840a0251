package pool

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/llm"
	"repro/internal/xrand"
)

// FuzzPoolPick drives the routing state machine with an arbitrary
// sequence of outcomes — success, transient failure, client error,
// cancellation — against a 3-replica pool with tight breakers, and
// checks the structural invariants:
//
//   - pick never panics and never hands out a replica whose breaker
//     is (still) open — an admitted replica is Closed or HalfOpen;
//   - when pick refuses, the error is llm.ErrCircuitOpen and every
//     replica really is ejected;
//   - once the cooldown elapses and probes succeed, the pool always
//     recovers: every replica closes again and picks flow.
//
// The seed's low bit selects the routing policy — even seeds run the
// default P2C policy, odd seeds rendezvous affinity routing — so both
// face the same adversarial outcome sequences.
func FuzzPoolPick(f *testing.F) {
	f.Add(uint64(1), []byte{0, 1, 2, 3, 0, 1, 1, 1, 0})
	f.Add(uint64(42), []byte{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Add(uint64(7), []byte{2, 2, 2, 0, 3, 3, 1, 0, 2})
	f.Add(uint64(99), []byte{})

	f.Fuzz(func(t *testing.T, seed uint64, ops []byte) {
		const cooldown = time.Millisecond
		replicas := []llm.Predictor{
			&fakePred{name: "r0", id: "x"},
			&fakePred{name: "r1", id: "x"},
			&fakePred{name: "r2", id: "x"},
		}
		pl, err := New(replicas, Config{
			Breaker:  BreakerConfig{Threshold: 2, Cooldown: cooldown},
			Affinity: seed%2 == 1,
		})
		if err != nil {
			t.Fatal(err)
		}

		rng := xrand.New(seed ^ 0x9e3779b97f4a7c15)
		canceledCtx, cancel := context.WithCancel(context.Background())
		cancel()
		transient := errors.New("backend down")

		for i, op := range ops {
			r, idx, _, err := pl.pick(pl.route(fmt.Sprintf("op-%d", i), rng))
			if err != nil {
				if !errors.Is(err, llm.ErrCircuitOpen) {
					t.Fatalf("op %d: pick error = %v, want ErrCircuitOpen", i, err)
				}
				// Refusal must mean every replica is ejected right now.
				for j, s := range states(pl) {
					if s != breakerOpen {
						t.Fatalf("op %d: pick refused but replica %d is %v", i, j, s)
					}
				}
				// Let cooldowns elapse so later ops can probe.
				time.Sleep(2 * cooldown)
				continue
			}
			if idx < 0 || idx >= len(replicas) {
				t.Fatalf("op %d: pick returned index %d", i, idx)
			}
			if s := r.brk.state(); s == breakerOpen {
				t.Fatalf("op %d: pick admitted replica %d while its breaker is open", i, idx)
			}
			judge := func(ctx context.Context, outcome error) {
				defer func() {
					if rec := recover(); rec != nil {
						t.Fatalf("op %d: judge panicked: %v", i, rec)
					}
				}()
				pl.judge(ctx, r, outcome)
			}
			switch op % 4 {
			case 0: // healthy answer
				judge(context.Background(), nil)
			case 1: // transient failure (5xx/transport): counts toward ejection
				judge(context.Background(), transient)
			case 2: // client-side 4xx: never trips the breaker
				judge(context.Background(), &llm.APIError{StatusCode: 404, Message: "no"})
			case 3: // canceled mid-flight: not the backend's fault
				judge(canceledCtx, context.Canceled)
			}
		}

		// Recovery: after the cooldown, successful probes must close
		// every breaker and picks must flow again.
		time.Sleep(2 * cooldown)
		for i := 0; i < 200; i++ {
			r, _, _, err := pl.pick(pl.route(fmt.Sprintf("probe-%d", i), rng))
			if err != nil {
				time.Sleep(cooldown)
				continue
			}
			r.brk.report(true)
			allClosed := true
			for _, s := range states(pl) {
				if s != breakerClosed {
					allClosed = false
				}
			}
			if allClosed {
				break
			}
		}
		for j, s := range states(pl) {
			if s != breakerClosed {
				t.Fatalf("replica %d never recovered: state %v after healthy probes", j, s)
			}
		}
		if _, _, _, err := pl.pick(pl.route("final", rng)); err != nil {
			t.Fatalf("pick still refusing after full recovery: %v", err)
		}
	})
}
