package pool

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/llm"
	"repro/internal/obs"
)

// The tests in this file drive a batch.Executor over a pool of one
// slot: the route every unpooled plan takes, where the slot's breaker
// is the single-backend breaker.

// scripted is a legacy (context-free) predictor whose first failFirst
// calls per prompt fail with failErr.
type scripted struct {
	failFirst int
	failErr   error

	mu    sync.Mutex
	calls map[string]int
	total atomic.Int64
}

func newScripted() *scripted { return &scripted{calls: map[string]int{}} }

func (s *scripted) Name() string { return "scripted" }

func (s *scripted) Query(prompt string) (llm.Response, error) {
	s.total.Add(1)
	s.mu.Lock()
	s.calls[prompt]++
	n := s.calls[prompt]
	s.mu.Unlock()
	if n <= s.failFirst {
		return llm.Response{}, s.failErr
	}
	return llm.Response{Text: "Category: ['A']", Category: "A", InputTokens: 10, OutputTokens: 2}, nil
}

// ctxHang is a context-aware predictor whose prompts containing match
// block until the context ends.
type ctxHang struct {
	match string
	inner llm.Predictor
}

func (h *ctxHang) Name() string { return "ctx-hang" }

func (h *ctxHang) Query(prompt string) (llm.Response, error) {
	return h.QueryContext(context.Background(), prompt)
}

func (h *ctxHang) QueryContext(ctx context.Context, prompt string) (llm.Response, error) {
	if strings.Contains(prompt, h.match) {
		<-ctx.Done()
		return llm.Response{}, ctx.Err()
	}
	return h.inner.Query(prompt)
}

func reqs(n int) []batch.Request {
	out := make([]batch.Request, n)
	for i := range out {
		out[i] = batch.Request{ID: fmt.Sprintf("q%03d", i), Prompt: fmt.Sprintf("prompt %d", i)}
	}
	return out
}

// executorOverOne builds an executor over a one-slot pool of p.
func executorOverOne(t *testing.T, p llm.Predictor, brk BreakerConfig, cfg batch.Config) (*batch.Executor, *Pool) {
	t.Helper()
	pl := mustPool(t, Config{Breaker: brk, Obs: cfg.Obs}, p)
	e, err := batch.New(pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e, pl
}

func TestBreakerDisabled(t *testing.T) {
	if b := newBreaker(BreakerConfig{}, nil); b != nil {
		t.Fatal("zero config built a live breaker")
	}
	_, pl := executorOverOne(t, newScripted(), BreakerConfig{}, batch.Config{Workers: 1})
	if s := states(pl); len(s) != 1 || s[0] != breakerClosed {
		t.Fatalf("pool without breaker reports %v, want [closed]", s)
	}
}

func TestExecutorBreakerFailsFast(t *testing.T) {
	p := newScripted()
	p.failFirst = 1000 // every call fails
	p.failErr = &llm.APIError{StatusCode: http.StatusServiceUnavailable, Message: "down"}
	e, pl := executorOverOne(t, p,
		BreakerConfig{Threshold: 3, Cooldown: time.Hour},
		batch.Config{Workers: 1, MaxRetries: -1})
	res, err := e.Execute(context.Background(), reqs(20))
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 20 {
		t.Fatalf("failed=%d, want 20", res.Failed)
	}
	if s := states(pl)[0]; s != breakerOpen {
		t.Fatalf("breaker %v after a dead backend, want open", s)
	}
	// Only the first Threshold calls reached the predictor; the rest
	// were rejected without a call.
	if got := p.total.Load(); got != 3 {
		t.Fatalf("predictor saw %d calls, want 3 (threshold)", got)
	}
	rejected := 0
	for _, o := range res.Outcomes {
		if errors.Is(o.Err, llm.ErrCircuitOpen) {
			rejected++
		}
	}
	if rejected != 17 {
		t.Fatalf("rejected=%d, want 17", rejected)
	}
}

func TestExecutorBreakerRecovers(t *testing.T) {
	p := newScripted()
	p.failFirst = 1 // first call per prompt fails, then succeeds
	p.failErr = &llm.APIError{StatusCode: http.StatusServiceUnavailable, Message: "blip"}
	e, pl := executorOverOne(t, p,
		BreakerConfig{Threshold: 5, Cooldown: time.Hour},
		batch.Config{Workers: 1, MaxRetries: 2, RetryDelay: time.Millisecond})
	res, err := e.Execute(context.Background(), reqs(10))
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("failed=%d with retries available, want 0", res.Failed)
	}
	if s := states(pl)[0]; s != breakerClosed {
		t.Fatalf("breaker %v, want closed (successes reset the streak)", s)
	}
}

func TestQueryTimeoutTripsBreaker(t *testing.T) {
	// Every prompt hangs; a call that outlives the executor's
	// QueryTimeout counts against the replica, so its breaker opens and
	// the tail of the batch fails fast.
	h := &ctxHang{match: "prompt", inner: newScripted()}
	e, pl := executorOverOne(t, h,
		BreakerConfig{Threshold: 2, Cooldown: time.Hour},
		batch.Config{Workers: 1, MaxRetries: -1, QueryTimeout: 10 * time.Millisecond})
	res, err := e.Execute(context.Background(), reqs(8))
	if err != nil {
		t.Fatal(err)
	}
	if s := states(pl)[0]; s != breakerOpen {
		t.Fatalf("breaker %v, want open after repeated timeouts", s)
	}
	timeouts, rejections := 0, 0
	for _, o := range res.Outcomes {
		switch {
		case errors.Is(o.Err, llm.ErrQueryTimeout):
			timeouts++
		case errors.Is(o.Err, llm.ErrCircuitOpen):
			rejections++
		}
	}
	if timeouts != 2 || rejections != 6 {
		t.Fatalf("timeouts=%d rejections=%d, want 2 and 6", timeouts, rejections)
	}
}

func TestCircuitOpenFailsFastWithoutAttempts(t *testing.T) {
	// A dead replica is ejected on its first failure. The request that
	// ejected it retries once into the open breaker and stops there;
	// every later request is refused by the pool and must come back at
	// once — no retry, no backoff — reporting zero attempts, because no
	// replica received a call.
	p := newScripted()
	p.failFirst = 1000
	p.failErr = &llm.APIError{StatusCode: http.StatusServiceUnavailable, Message: "down"}
	reg := obs.NewRegistry()
	e, _ := executorOverOne(t, p,
		BreakerConfig{Threshold: 1, Cooldown: time.Hour},
		batch.Config{Workers: 1, MaxRetries: 2, RetryDelay: time.Millisecond, Obs: reg})
	res, err := e.Execute(context.Background(), reqs(5))
	if err != nil {
		t.Fatal(err)
	}
	if got := p.total.Load(); got != 1 {
		t.Fatalf("predictor saw %d calls, want 1 (the ejecting call)", got)
	}
	first := res.Outcomes["q000"]
	if !errors.Is(first.Err, llm.ErrCircuitOpen) || first.Attempts != 1 {
		t.Fatalf("ejecting request: err %v attempts %d, want ErrCircuitOpen after 1 attempt", first.Err, first.Attempts)
	}
	for i := 1; i < 5; i++ {
		o := res.Outcomes[fmt.Sprintf("q%03d", i)]
		if !errors.Is(o.Err, llm.ErrCircuitOpen) || o.Attempts != 0 {
			t.Fatalf("q%03d: err %v attempts %d, want ErrCircuitOpen with 0 attempts", i, o.Err, o.Attempts)
		}
	}
	if got := reg.CounterValue("mqo_batch_retries_total"); got != 1 {
		t.Fatalf("retries=%v, want 1 (only the ejecting request's)", got)
	}
	if got := reg.CounterValue("mqo_batch_requests_total", "outcome", "rejected"); got != 5 {
		t.Fatalf("rejected outcomes=%v, want 5", got)
	}
}
