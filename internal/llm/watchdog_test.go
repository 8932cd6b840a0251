package llm

import (
	"context"
	"errors"
	"testing"
	"time"
)

// blocking is a legacy predictor that parks every call until release
// is closed.
type blocking struct {
	release chan struct{}
	entered chan struct{}
}

func (b *blocking) Name() string     { return "blocking" }
func (b *blocking) Identity() string { return "blocking/v1" }

func (b *blocking) Query(string) (Response, error) {
	b.entered <- struct{}{}
	<-b.release
	return Response{Category: "late"}, nil
}

// plain is a legacy predictor that answers at once.
type plain struct{}

func (plain) Name() string                   { return "plain" }
func (plain) Query(string) (Response, error) { return Response{Category: "A"}, nil }

func TestWithContextWatchdog(t *testing.T) {
	// A context-aware predictor passes through untouched.
	inj, err := NewFaultInjector(plain{}, FaultConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if got := WithContext(inj); got != ContextPredictor(inj) {
		t.Fatal("WithContext wrapped a predictor that already implements QueryContext")
	}

	// A legacy predictor keeps its name and identity, and a context
	// without a deadline reaches Query directly: even a canceled one, as
	// a cancellation alone cannot stop the call.
	cp := WithContext(plain{})
	if cp.Name() != "plain" || IdentityOf(cp) != "plain" {
		t.Fatalf("adapter name/identity %q/%q, want plain/plain", cp.Name(), IdentityOf(cp))
	}
	canceled, cancelNow := context.WithCancel(context.Background())
	cancelNow()
	for _, ctx := range []context.Context{context.Background(), canceled} {
		if resp, err := cp.QueryContext(ctx, "p"); err != nil || resp.Category != "A" {
			t.Fatalf("direct path: %+v %v", resp, err)
		}
	}

	// With a deadline, a hung call is abandoned when the context ends and
	// finishes in the background once released.
	b := &blocking{release: make(chan struct{}), entered: make(chan struct{}, 1)}
	cp = WithContext(b)
	if IdentityOf(cp) != "blocking/v1" {
		t.Fatalf("identity %q not forwarded", IdentityOf(cp))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = cp.QueryContext(ctx, "p")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("hung call returned %v, want context.DeadlineExceeded", err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("watchdog waited %v for a 20ms deadline", waited)
	}
	<-b.entered
	close(b.release)
}
