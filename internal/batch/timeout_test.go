package batch

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/llm"
)

// hang is a legacy (context-free) predictor whose marked prompts block
// until release is closed.
type hang struct {
	match   string
	release chan struct{}
	inner   llm.Predictor
}

func (h *hang) Name() string { return "hang" }

func (h *hang) Query(prompt string) (llm.Response, error) {
	if h.match == "" || len(prompt) >= len(h.match) && containsStr(prompt, h.match) {
		<-h.release
		return llm.Response{}, errors.New("hang released")
	}
	return h.inner.Query(prompt)
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestQueryTimeoutWatchdog(t *testing.T) {
	// One hung prompt must not stall the batch: the watchdog abandons
	// the call at the deadline and the batch completes.
	h := &hang{match: "prompt 3", release: make(chan struct{}), inner: newScripted()}
	defer close(h.release)
	e, err := New(h, Config{Workers: 2, MaxRetries: -1, QueryTimeout: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := e.Execute(context.Background(), reqs(10))
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("batch took %v; hung call stalled it", elapsed)
	}
	if res.Failed != 1 {
		t.Fatalf("failed=%d, want exactly the hung prompt", res.Failed)
	}
	o := res.Outcomes["q003"]
	if !errors.Is(o.Err, llm.ErrQueryTimeout) {
		t.Fatalf("hung prompt outcome %v, want ErrQueryTimeout", o.Err)
	}
	for id, o := range res.Outcomes {
		if id != "q003" && o.Err != nil {
			t.Fatalf("%s failed: %v", id, o.Err)
		}
	}
}

// ctxHang is a context-aware predictor whose marked prompts block until
// the context ends.
type ctxHang struct {
	match string
	inner llm.Predictor
}

func (h *ctxHang) Name() string { return "ctx-hang" }

func (h *ctxHang) Query(prompt string) (llm.Response, error) {
	return h.QueryContext(context.Background(), prompt)
}

func (h *ctxHang) QueryContext(ctx context.Context, prompt string) (llm.Response, error) {
	if containsStr(prompt, h.match) {
		<-ctx.Done()
		return llm.Response{}, ctx.Err()
	}
	return h.inner.Query(prompt)
}

func TestQueryTimeoutContextPath(t *testing.T) {
	h := &ctxHang{match: "prompt 5", inner: newScripted()}
	e, err := New(h, Config{Workers: 4, MaxRetries: -1, QueryTimeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Execute(context.Background(), reqs(12))
	if err != nil {
		t.Fatal(err)
	}
	o := res.Outcomes["q005"]
	if !errors.Is(o.Err, llm.ErrQueryTimeout) {
		t.Fatalf("hung prompt outcome %v, want ErrQueryTimeout", o.Err)
	}
	if res.Failed != 1 {
		t.Fatalf("failed=%d, want 1", res.Failed)
	}
}
