package llm

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"testing"
	"time"
)

func TestParseRetryAfter(t *testing.T) {
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		name, header string
		want         time.Duration
	}{
		{"delta seconds", "2", 2 * time.Second},
		{"delta with spaces", "  120  ", 120 * time.Second},
		{"zero", "0", 0},
		{"negative", "-5", 0},
		{"http date future", now.Add(90 * time.Second).Format(http.TimeFormat), 90 * time.Second},
		{"http date past", now.Add(-time.Minute).Format(http.TimeFormat), 0},
		{"empty", "", 0},
		{"garbage", "soon", 0},
	}
	for _, c := range cases {
		if got := parseRetryAfter(c.header, now); got != c.want {
			t.Errorf("%s: parseRetryAfter(%q) = %v, want %v", c.name, c.header, got, c.want)
		}
	}
}

func TestPermanent(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"400", &APIError{StatusCode: 400}, true},
		{"404 wrapped", fmt.Errorf("attempt: %w", &APIError{StatusCode: 404}), true},
		{"unreadable prompt", fmt.Errorf("%w: missing target line", ErrUnreadablePrompt), true},
		{"429", &APIError{StatusCode: 429}, false},
		{"500", &APIError{StatusCode: 500}, false},
		{"503", &APIError{StatusCode: 503, RetryAfter: time.Second}, false},
		{"transport", errors.New("llm: transport: connection refused"), false},
		{"deadline", context.DeadlineExceeded, false},
		{"nil", nil, false},
	}
	for _, c := range cases {
		if got := Permanent(c.err); got != c.want {
			t.Errorf("%s: Permanent(%v) = %v, want %v", c.name, c.err, got, c.want)
		}
	}
}
