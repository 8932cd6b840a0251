package llm

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/prompt"
	"repro/internal/token"
)

// This file implements the production path of the "LLMs as predictors"
// contract: an OpenAI-compatible chat-completions client. The paper
// treats the LLM as a black box reachable over an API; everything else
// in this repository (methods, pruning, boosting, budget accounting)
// operates on prompt strings and Responses, so swapping Sim for
// HTTPPredictor deploys the same pipeline against a real endpoint.

// HTTPConfig configures an HTTPPredictor.
type HTTPConfig struct {
	// BaseURL is the API root, e.g. "https://api.openai.com" or a local
	// llmserve address. The client POSTs to BaseURL + ChatCompletionsPath.
	BaseURL string
	// Model is the model identifier sent in every request.
	Model string
	// APIKey, when non-empty, is sent as a Bearer token.
	APIKey string
	// Timeout bounds each HTTP round trip (default 60s).
	Timeout time.Duration
	// Client overrides the transport; nil uses a client with Timeout.
	Client *http.Client
}

// ChatCompletionsPath is the OpenAI-compatible endpoint path.
const ChatCompletionsPath = "/v1/chat/completions"

// HTTPPredictor queries an OpenAI-compatible endpoint and implements
// Predictor. Token usage is taken from the server's usage block when
// present, otherwise estimated with the local tokenizer. Every call is
// exactly one round trip: retries, and honouring the server's
// Retry-After, belong to the batch executor above, so the calls a
// backend receives are the attempts the executor reports.
type HTTPPredictor struct {
	cfg    HTTPConfig
	client *http.Client
	meter  token.Meter
}

// NewHTTPPredictor validates the configuration and returns a client.
func NewHTTPPredictor(cfg HTTPConfig) (*HTTPPredictor, error) {
	if cfg.BaseURL == "" {
		return nil, errors.New("llm: HTTPConfig.BaseURL is required")
	}
	if cfg.Model == "" {
		return nil, errors.New("llm: HTTPConfig.Model is required")
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 60 * time.Second
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: cfg.Timeout}
	}
	return &HTTPPredictor{cfg: cfg, client: client}, nil
}

// Name implements Predictor.
func (c *HTTPPredictor) Name() string { return c.cfg.Model }

// Identity implements Identifier: the model id plus the endpoint, so
// persistent caches distinguish the same model name served by two
// different backends (say, llmserve instances over different datasets).
func (c *HTTPPredictor) Identity() string { return c.cfg.Model + "@" + c.cfg.BaseURL }

// Meter returns the client-side token meter (cumulative usage of all
// queries, successful or not as reported by the server). The meter is
// synchronized, so it stays consistent when the predictor serves a
// multi-worker batch executor.
func (c *HTTPPredictor) Meter() *token.Meter { return &c.meter }

// chat-completions wire format (the subset this client uses).
type chatMessage struct {
	Role    string `json:"role"`
	Content string `json:"content"`
}

type chatRequest struct {
	Model       string        `json:"model"`
	Messages    []chatMessage `json:"messages"`
	Temperature float64       `json:"temperature"`
}

type chatChoice struct {
	Message chatMessage `json:"message"`
}

type chatUsage struct {
	PromptTokens     int `json:"prompt_tokens"`
	CompletionTokens int `json:"completion_tokens"`
}

type chatResponse struct {
	Choices []chatChoice `json:"choices"`
	Usage   chatUsage    `json:"usage"`
}

type chatErrorBody struct {
	Error struct {
		Message string `json:"message"`
		Type    string `json:"type"`
		// TraceID correlates an error with its /debug/querytrace entry
		// (set by llm.Handler on traced requests).
		TraceID string `json:"trace_id,omitempty"`
	} `json:"error"`
}

// APIError is an HTTP failure: the status the server answered with,
// its message and its Retry-After hint.
type APIError struct {
	StatusCode int
	Message    string
	// RetryAfter is the server's Retry-After hint, when it sent one
	// (parsed from both delta-seconds and HTTP-date forms); zero
	// otherwise. The batch executor's retry schedule prefers it over
	// its own backoff — ignoring it fights the server's backpressure.
	RetryAfter time.Duration
}

// Error implements error.
func (e *APIError) Error() string {
	return fmt.Sprintf("llm: API error %d: %s", e.StatusCode, e.Message)
}

// ErrUnreadablePrompt marks a prompt that does not follow the Table
// III templates: the request's fault, so a server reports it as 400.
var ErrUnreadablePrompt = errors.New("llm: unreadable prompt")

// ErrCircuitOpen marks requests rejected because every circuit breaker
// in front of the backend was open: the backend is presumed down, so the
// caller fails fast instead of queuing more doomed calls behind it. The
// replica pool returns it without calling a replica; the batch executor
// then gives up at once, without retry or backoff. Its text predates
// the move into this package and is kept so logs read the same.
var ErrCircuitOpen = errors.New("batch: circuit breaker open")

// ErrQueryTimeout marks predictor attempts that outlived the batch
// executor's per-attempt deadline. It is transient: retries (if
// configured) get a fresh deadline. It is also the cause of the
// attempt's context, so a replica pool below counts the timeout against
// the slow replica's breaker rather than as a cancellation.
var ErrQueryTimeout = errors.New("batch: query timed out")

// Permanent reports whether err is the request's own fault — an API
// error with a 4xx status other than 429, or an unreadable prompt — so
// retrying cannot help and it says nothing about a backend's health.
// Every other failure is transient. The executor's retry loop and the
// pool's breaker verdicts both ask it.
func Permanent(err error) bool {
	if errors.Is(err, ErrUnreadablePrompt) {
		return true
	}
	var apiErr *APIError
	return errors.As(err, &apiErr) &&
		apiErr.StatusCode < 500 && apiErr.StatusCode != http.StatusTooManyRequests
}

// parseRetryAfter reads a Retry-After header value in either RFC 9110
// form — delta-seconds ("120") or an HTTP-date — returning 0 for an
// absent, malformed or already-elapsed value.
func parseRetryAfter(v string, now time.Time) time.Duration {
	v = strings.TrimSpace(v)
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs <= 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if at, err := http.ParseTime(v); err == nil {
		if d := at.Sub(now); d > 0 {
			return d
		}
	}
	return 0
}

// Query implements Predictor: one chat-completions call.
// The category is parsed from the model's answer with the Table III
// response format; an answer not in that format is used verbatim
// (trimmed) so a single loosely-formatted reply does not abort a batch.
func (c *HTTPPredictor) Query(promptText string) (Response, error) {
	return c.QueryContext(context.Background(), promptText)
}

// QueryContext is Query with caller-controlled cancellation. A failure
// comes back as the server's *APIError (carrying its Retry-After) or
// the transport error, unchanged.
func (c *HTTPPredictor) QueryContext(ctx context.Context, promptText string) (Response, error) {
	body, err := json.Marshal(chatRequest{
		Model:    c.cfg.Model,
		Messages: []chatMessage{{Role: "user", Content: promptText}},
	})
	if err != nil {
		return Response{}, fmt.Errorf("llm: encoding request: %w", err)
	}

	wire, err := c.do(ctx, body)
	if err != nil {
		return Response{}, err
	}
	return c.finish(promptText, wire)
}

// do performs one HTTP round trip. When the context carries a sampled
// trace span, the round trip gets a child span and the request carries
// the W3C traceparent header, so an llmserve on the other end (itself
// possibly proxying to further upstreams) stitches its spans into this
// query's trace.
func (c *HTTPPredictor) do(ctx context.Context, body []byte) (*chatResponse, error) {
	sctx, sp := obs.StartSpanCtx(ctx, nil, "llm.http", "model", c.cfg.Model)
	req, err := http.NewRequestWithContext(sctx, http.MethodPost,
		strings.TrimSuffix(c.cfg.BaseURL, "/")+ChatCompletionsPath, bytes.NewReader(body))
	if err != nil {
		sp.End()
		return nil, fmt.Errorf("llm: building request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	if c.cfg.APIKey != "" {
		req.Header.Set("Authorization", "Bearer "+c.cfg.APIKey)
	}
	if tp := obs.TraceParent(sp); tp != "" {
		req.Header.Set(obs.TraceParentHeader, tp)
	}
	httpResp, err := c.client.Do(req)
	if err != nil {
		sp.SetAttr("outcome", "transport_error")
		sp.End()
		return nil, fmt.Errorf("llm: transport: %w", err)
	}
	defer httpResp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(httpResp.Body, 1<<20))
	sp.SetAttr("status", strconv.Itoa(httpResp.StatusCode))
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("llm: reading response: %w", err)
	}
	if httpResp.StatusCode != http.StatusOK {
		msg := strings.TrimSpace(string(raw))
		var eb chatErrorBody
		if json.Unmarshal(raw, &eb) == nil && eb.Error.Message != "" {
			msg = eb.Error.Message
		}
		return nil, &APIError{
			StatusCode: httpResp.StatusCode,
			Message:    msg,
			RetryAfter: parseRetryAfter(httpResp.Header.Get("Retry-After"), time.Now()),
		}
	}
	var out chatResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, fmt.Errorf("llm: decoding response: %w", err)
	}
	if len(out.Choices) == 0 {
		return nil, errors.New("llm: response has no choices")
	}
	return &out, nil
}

// finish converts a successful wire response into a Response and meters
// its tokens.
func (c *HTTPPredictor) finish(promptText string, wire *chatResponse) (Response, error) {
	content := wire.Choices[0].Message.Content
	category, err := prompt.ParseResponse(content)
	if err != nil {
		category = strings.TrimSpace(content)
	}
	in, out := wire.Usage.PromptTokens, wire.Usage.CompletionTokens
	if in == 0 {
		in = token.Count(promptText)
	}
	if out == 0 {
		out = token.Count(content)
	}
	resp := Response{Text: content, Category: category, InputTokens: in, OutputTokens: out}
	c.meter.AddQuery(in, out)
	return resp, nil
}
