package batch

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/llm"
)

func TestRetryBackoffCapped(t *testing.T) {
	base := 100 * time.Millisecond
	max := 30 * time.Second
	cases := []struct {
		attempt int
		want    time.Duration
	}{
		{1, 100 * time.Millisecond},
		{2, 200 * time.Millisecond},
		{5, 1600 * time.Millisecond},
		{10, 30 * time.Second},
		// Regression: shifting/doubling by the raw attempt count used to
		// overflow int64 into negative delays past attempt ~64.
		{64, 30 * time.Second},
		{100, 30 * time.Second},
		{1 << 20, 30 * time.Second},
	}
	for _, c := range cases {
		got := retryBackoff(base, max, c.attempt)
		if got != c.want {
			t.Errorf("retryBackoff(%v, %v, %d) = %v, want %v", base, max, c.attempt, got, c.want)
		}
		if got < 0 {
			t.Fatalf("retryBackoff(%v, %v, %d) went negative: %v", base, max, c.attempt, got)
		}
	}
}

// TestExecuteHonorsRetryAfter: a failure carrying a Retry-After hint
// replaces the exponential schedule (1ms here) for the next retry,
// capped at MaxRetryDelay — the 2s hint becomes a 100ms wait.
func TestExecuteHonorsRetryAfter(t *testing.T) {
	p := newScripted()
	p.failFirst = 1
	p.failErr = &llm.APIError{StatusCode: http.StatusTooManyRequests, Message: "slow down", RetryAfter: 2 * time.Second}
	e, err := New(p, Config{Workers: 1, MaxRetries: 1, RetryDelay: time.Millisecond, MaxRetryDelay: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := e.Execute(context.Background(), reqs(1))
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if o := res.Outcomes["q000"]; o.Err != nil || o.Attempts != 2 {
		t.Fatalf("outcome %+v, want success on attempt 2", o)
	}
	if elapsed < 100*time.Millisecond {
		t.Fatalf("retried after %v, want >= 100ms (Retry-After capped at MaxRetryDelay)", elapsed)
	}
	if elapsed > 1500*time.Millisecond {
		t.Fatalf("retried after %v, want the 2s hint capped at 100ms", elapsed)
	}
}

// TestExecuteRetryAttemptsMatchServerHits pins the attempt contract
// over a real HTTP backend: the client makes one call per attempt, so
// the calls the server receives, Outcome.Attempts and the audit log's
// attempts all equal MaxRetries+1.
func TestExecuteRetryAttemptsMatchServerHits(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, `{"error":{"message":"down","type":"server_error"}}`, http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	hp, err := llm.NewHTTPPredictor(llm.HTTPConfig{BaseURL: srv.URL, Model: "m"})
	if err != nil {
		t.Fatal(err)
	}
	const maxRetries = 2
	var log bytes.Buffer
	e, err := New(hp, Config{Workers: 1, MaxRetries: maxRetries, RetryDelay: time.Millisecond, Log: &log})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Execute(context.Background(), reqs(1))
	if err != nil {
		t.Fatal(err)
	}
	o := res.Outcomes["q000"]
	var apiErr *llm.APIError
	if !errors.As(o.Err, &apiErr) || apiErr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("outcome error = %v, want the backend's 503", o.Err)
	}
	var line struct {
		Attempts int `json:"attempts"`
	}
	sc := bufio.NewScanner(&log)
	if !sc.Scan() {
		t.Fatal("audit log is empty")
	}
	if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
		t.Fatal(err)
	}
	if got := hits.Load(); got != maxRetries+1 || o.Attempts != maxRetries+1 || line.Attempts != maxRetries+1 {
		t.Fatalf("server hits %d, Outcome.Attempts %d, audit-log attempts %d; want all %d",
			got, o.Attempts, line.Attempts, maxRetries+1)
	}
}
