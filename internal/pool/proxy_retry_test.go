package pool

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/llm"
)

// deadUpstreams is a set of always-503 chat-completions backends that
// share one hit log, so a test can count and time every call the
// upstream tier receives.
type deadUpstreams struct {
	mu   sync.Mutex
	hits []time.Time
}

func (d *deadUpstreams) count() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.hits)
}

// start launches one upstream that waits delay, then answers 503 with
// the given Retry-After header (none when empty).
func (d *deadUpstreams) start(t *testing.T, delay time.Duration, retryAfter string) string {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		d.mu.Lock()
		d.hits = append(d.hits, time.Now())
		d.mu.Unlock()
		select {
		case <-time.After(delay):
		case <-r.Context().Done():
		}
		if retryAfter != "" {
			w.Header().Set("Retry-After", retryAfter)
		}
		http.Error(w, `{"error":{"message":"overloaded","type":"server_error"}}`, http.StatusServiceUnavailable)
	}))
	t.Cleanup(srv.Close)
	return srv.URL
}

// proxyChain builds llmserve's -upstreams topology in-process — client
// executor → HTTP client → proxy Handler over a pool of HTTP clients →
// upstreams — and runs one query through it, returning its outcome.
func proxyChain(t *testing.T, upstreams []string, pcfg Config, ecfg batch.Config) batch.Outcome {
	t.Helper()
	var reps []llm.Predictor
	for _, u := range upstreams {
		hp, err := llm.NewHTTPPredictor(llm.HTTPConfig{BaseURL: u, Model: "sim"})
		if err != nil {
			t.Fatal(err)
		}
		reps = append(reps, hp)
	}
	pl, err := New(reps, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	proxy := httptest.NewServer(llm.NewHandler(pl))
	t.Cleanup(proxy.Close)
	client, err := llm.NewHTTPPredictor(llm.HTTPConfig{BaseURL: proxy.URL, Model: "sim"})
	if err != nil {
		t.Fatal(err)
	}
	e, err := batch.New(client, ecfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Execute(context.Background(), []batch.Request{{ID: "q", Prompt: "p"}})
	if err != nil {
		t.Fatal(err)
	}
	return res.Outcomes["q"]
}

// clientSaw503 fails unless the client's outcome is the upstream's 503
// — a retryable status the client's executor and breaker act on — and
// returns it.
func clientSaw503(t *testing.T, o batch.Outcome) *llm.APIError {
	t.Helper()
	var apiErr *llm.APIError
	if !errors.As(o.Err, &apiErr) || apiErr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("client outcome error = %v, want the upstream's 503 passed through the proxy", o.Err)
	}
	return apiErr
}

// TestProxyAmplificationBound states and checks the retry bound across
// the proxy hop: the client's executor is the only retry loop, so the
// upstream tier receives MaxRetries+1 calls per query, and at most
// twice that when the proxy's pool hedges.
func TestProxyAmplificationBound(t *testing.T) {
	const maxRetries = 2
	ecfg := batch.Config{Workers: 1, MaxRetries: maxRetries, RetryDelay: time.Millisecond}

	t.Run("hedge off", func(t *testing.T) {
		var up deadUpstreams
		urls := []string{up.start(t, 0, ""), up.start(t, 0, "")}
		o := proxyChain(t, urls, Config{}, ecfg)
		clientSaw503(t, o)
		if got := up.count(); got != maxRetries+1 || o.Attempts != maxRetries+1 {
			t.Fatalf("upstream hits %d, client attempts %d; want both %d", got, o.Attempts, maxRetries+1)
		}
	})

	t.Run("hedge on", func(t *testing.T) {
		// Each upstream call outlives HedgeAfter, so every client attempt
		// races both replicas.
		var up deadUpstreams
		urls := []string{up.start(t, 50*time.Millisecond, ""), up.start(t, 50*time.Millisecond, "")}
		o := proxyChain(t, urls, Config{Hedge: true, HedgeAfter: time.Millisecond}, ecfg)
		clientSaw503(t, o)
		if o.Attempts != maxRetries+1 {
			t.Fatalf("client attempts %d, want %d", o.Attempts, maxRetries+1)
		}
		if got := up.count(); got <= maxRetries+1 || got > 2*(maxRetries+1) {
			t.Fatalf("upstream hits %d, want hedged calls within (%d, %d]", got, maxRetries+1, 2*(maxRetries+1))
		}
	})
}

// TestProxyRetryAfterReachesClient: an upstream's Retry-After crosses
// the proxy hop with its 503, and the client's executor waits the hint
// — capped at its MaxRetryDelay — before the retry reaches the
// upstream again.
func TestProxyRetryAfterReachesClient(t *testing.T) {
	const capped = 150 * time.Millisecond
	var up deadUpstreams
	o := proxyChain(t, []string{up.start(t, 0, "1")}, Config{},
		batch.Config{Workers: 1, MaxRetries: 1, RetryDelay: time.Millisecond, MaxRetryDelay: capped})
	if apiErr := clientSaw503(t, o); apiErr.RetryAfter != time.Second {
		t.Fatalf("client saw Retry-After %v, want the upstream's 1s", apiErr.RetryAfter)
	}
	up.mu.Lock()
	defer up.mu.Unlock()
	if len(up.hits) != 2 {
		t.Fatalf("upstream hits %d, want 2", len(up.hits))
	}
	if gap := up.hits[1].Sub(up.hits[0]); gap < capped {
		t.Fatalf("client retried after %v, want >= %v (the 1s hint capped at MaxRetryDelay)", gap, capped)
	}
}
