// Package batch executes large sets of LLM queries against real-world
// API constraints: bounded concurrency, rate limits, transient
// failures, a hard token budget, single-flight deduplication, an
// optional persistent answer store and a JSONL audit log. It is the
// operational layer under the paper's multi-query optimization:
// Algorithm 1/2 decide *what* to ask; this package gets the batch asked
// reliably and within budget.
//
// The executor preserves the black-box Predictor contract — it only
// sees prompt strings — so it works identically over the simulator and
// the HTTP client.
package batch

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/llm"
	"repro/internal/obs"
	"repro/internal/promptcache"
)

// Metric names emitted by the executor; the full catalog lives in
// README.md ("Observability").
const (
	metricBatchRequests  = "mqo_batch_requests_total"
	metricBatchRetries   = "mqo_batch_retries_total"
	metricBatchThrottled = "mqo_batch_throttle_waits_total"
	metricBatchAborts    = "mqo_batch_aborts_total"
	metricBatchInflight  = "mqo_batch_inflight"
	metricBatchTokens    = "mqo_batch_tokens_total"
	metricBatchAttempt   = "mqo_batch_attempt_duration_seconds"
	metricBatchTimeouts  = "mqo_batch_timeouts_total"
)

// Request is one query to execute: an opaque caller ID plus the final
// prompt text.
type Request struct {
	ID     string
	Prompt string
	// Ctx optionally carries the query's trace span and ledger
	// (obs.ContextWithSpan / obs.ContextWithLedger), so the executor's
	// spans nest under the caller's query span and its stage charges
	// land on the right books. Only values are taken from it —
	// cancellation always comes from the context passed to Execute.
	Ctx context.Context
}

// Config tunes an Executor.
type Config struct {
	// Workers is the number of concurrent in-flight queries
	// (default 4).
	Workers int
	// QPS caps the dispatch rate across all workers; 0 means unlimited.
	QPS float64
	// MaxRetries bounds per-query retries on transient failures
	// (default 2; -1 disables retries entirely); permanent ones
	// (llm.Permanent) fail immediately. This is the program's only
	// retry loop: predictors below make one call per attempt.
	MaxRetries int
	// RetryDelay is the initial backoff, doubled per retry
	// (default 100ms); a server's Retry-After replaces it.
	RetryDelay time.Duration
	// MaxRetryDelay caps the exponential backoff and any Retry-After
	// hint (default 30s), so long retry schedules neither overflow
	// time.Duration nor grow into hour-long sleeps.
	MaxRetryDelay time.Duration
	// BudgetTokens, when > 0, is a hard cap on total tokens
	// (input + output) across the batch. Queries that would start after
	// the cap is reached fail with ErrBudgetExhausted instead of
	// spending money.
	BudgetTokens int
	// QueryTimeout, when > 0, bounds each predictor attempt. A call
	// that outlives the deadline fails with llm.ErrQueryTimeout
	// (retryable) instead of stalling its worker: predictors implementing
	// llm.ContextPredictor are canceled mid-flight, legacy predictors
	// are abandoned by llm.WithContext's watchdog (their goroutine
	// finishes — or parks — in the background).
	QueryTimeout time.Duration
	// Disk, when non-nil, is the answer store: requests consult it
	// before paying for a predictor call, and fresh answers are written
	// through to it. Its live entries are memory-resident, so a hit is
	// a map lookup under a shard lock. Lookups run inside the
	// single-flight critical section, so concurrent identical prompts
	// cost at most one lookup.
	Disk *promptcache.Cache
	// CacheNamespace partitions the disk cache by answer function;
	// empty derives it from the predictor (promptcache.Namespace), which
	// folds in the model identity, its seed and the prompt-template
	// version. Set it explicitly only to share or isolate cache entries
	// in a non-standard way.
	CacheNamespace string
	// Log, when non-nil, receives one JSON line per query outcome.
	// Prompts are logged as SHA-256 digests, never as raw text. Writes
	// are serialized, so the writer need not be goroutine-safe.
	Log io.Writer
	// OnOutcome, when non-nil, is invoked once per request the moment
	// its outcome settles — from the worker goroutine that finished it
	// (or from Execute itself, for requests never dispatched because the
	// context ended) — with no executor locks held. Online callers use
	// it to answer per-request waiters before the whole batch returns.
	// The callback runs on the worker's critical path, so it must not
	// block for long.
	OnOutcome func(Request, Outcome)
	// Obs receives executor metrics (request outcomes, retries,
	// throttle waits, in-flight gauge, per-attempt latency); nil routes
	// to the process-default recorder.
	Obs obs.Recorder
}

// ErrBudgetExhausted marks queries skipped because the token budget was
// already spent.
var ErrBudgetExhausted = errors.New("batch: token budget exhausted")

// Outcome is the result of one request.
type Outcome struct {
	Response llm.Response
	Err      error
	// Cached reports that the response came from the answer store or
	// from a concurrent identical request (single-flight) rather than
	// from a predictor call made for this request.
	Cached bool
	// Attempts counts this request's calls to the predictor (a hedging
	// pool below may send one to two replicas): 0 when cached, skipped,
	// or refused by open breakers (llm.ErrCircuitOpen).
	Attempts int
	// Finished is when the worker completed the request (zero for
	// requests never dispatched). When tracing is live it is the exact
	// instant the request's residual charge runs to, so a caller that
	// closes its per-request span and ledger at Finished gets billed
	// stages that tile the span with no gap.
	Finished time.Time
}

// Result aggregates a batch execution.
type Result struct {
	// Outcomes maps request IDs to their outcomes.
	Outcomes map[string]Outcome
	// TokensUsed is the total input+output tokens actually spent.
	TokensUsed int
	// CacheHits counts requests answered without a predictor call of
	// their own (Outcome.Cached).
	CacheHits int
	// Failed counts requests whose final outcome is an error.
	Failed int
	// Skipped counts requests refused under ErrBudgetExhausted.
	Skipped int
}

// Executor runs batches against one predictor.
type Executor struct {
	p   llm.ContextPredictor
	cfg Config

	mu     sync.Mutex
	flight map[string]*flightCall
	logErr error

	// logMu serializes writes to Config.Log, which need not be safe for
	// concurrent use: a line lost to an interleaved write would make a
	// resume re-pay a finished query.
	logMu sync.Mutex

	inflight atomic.Int64
}

// flightCall is an in-progress predictor call that concurrent requests
// for the same prompt wait on instead of re-querying (single-flight).
type flightCall struct {
	done chan struct{} // closed once resp/err are set
	resp llm.Response
	err  error
}

// New builds an executor. The predictor is used concurrently from
// Config.Workers goroutines; legacy predictors get llm.WithContext. The
// executor has no breaker of its own: breakers live in the replica pool
// (package pool), one per slot.
func New(p llm.Predictor, cfg Config) (*Executor, error) {
	if p == nil {
		return nil, errors.New("batch: nil predictor")
	}
	if cfg.Workers < 0 || cfg.QPS < 0 || cfg.MaxRetries < -1 || cfg.BudgetTokens < 0 ||
		cfg.QueryTimeout < 0 {
		return nil, fmt.Errorf("batch: negative config value: %+v", cfg)
	}
	if cfg.Workers == 0 {
		cfg.Workers = 4
	}
	switch cfg.MaxRetries {
	case 0:
		cfg.MaxRetries = 2
	case -1:
		cfg.MaxRetries = 0
	}
	if cfg.RetryDelay <= 0 {
		cfg.RetryDelay = 100 * time.Millisecond
	}
	if cfg.MaxRetryDelay <= 0 {
		cfg.MaxRetryDelay = defaultMaxRetryDelay
	}
	if cfg.Disk != nil && cfg.CacheNamespace == "" {
		cfg.CacheNamespace = promptcache.Namespace(p)
	}
	return &Executor{p: llm.WithContext(p), cfg: cfg, flight: make(map[string]*flightCall)}, nil
}

// logLine is the JSONL audit record for one query.
type logLine struct {
	Time         string `json:"time"`
	ID           string `json:"id"`
	PromptSHA256 string `json:"prompt_sha256"`
	InputTokens  int    `json:"input_tokens,omitempty"`
	OutputTokens int    `json:"output_tokens,omitempty"`
	Category     string `json:"category,omitempty"`
	Cached       bool   `json:"cached,omitempty"`
	Attempts     int    `json:"attempts,omitempty"`
	Error        string `json:"error,omitempty"`
}

// log writes one audit line; write errors are remembered and surfaced
// by Execute rather than dropped.
func (e *Executor) log(l logLine) {
	if e.cfg.Log == nil {
		return
	}
	l.Time = time.Now().UTC().Format(time.RFC3339Nano)
	data, err := json.Marshal(l)
	if err == nil {
		data = append(data, '\n')
		e.logMu.Lock()
		_, err = e.cfg.Log.Write(data)
		e.logMu.Unlock()
	}
	if err != nil {
		e.mu.Lock()
		if e.logErr == nil {
			e.logErr = err
		}
		e.mu.Unlock()
	}
}

// promptDigest fingerprints a prompt for the audit log.
func promptDigest(p string) string {
	sum := sha256.Sum256([]byte(p))
	return hex.EncodeToString(sum[:8])
}

// budget tracks remaining tokens across workers.
type budget struct {
	mu        sync.Mutex
	remaining int
	unlimited bool
	spent     int
}

// tryReserve reports whether the batch may start another query, i.e.
// the budget is not yet exhausted. Token costs are only known after the
// response, so the guard admits a query while any budget remains and
// charges the actual usage afterwards (the overshoot is at most one
// query per worker, matching how per-request billing behaves).
func (b *budget) tryReserve() bool {
	if b.unlimited {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.remaining > 0
}

// charge records actual usage.
func (b *budget) charge(tokens int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.spent += tokens
	if !b.unlimited {
		b.remaining -= tokens
	}
}

// Execute runs all requests and returns per-request outcomes. It only
// returns a top-level error for setup problems (nil context) or a
// failing audit log; per-query failures are reported in Outcomes so one
// bad query cannot void a 10,000-query batch.
func (e *Executor) Execute(ctx context.Context, reqs []Request) (*Result, error) {
	if ctx == nil {
		return nil, errors.New("batch: nil context")
	}
	res := &Result{Outcomes: make(map[string]Outcome, len(reqs))}
	seen := make(map[string]bool, len(reqs))
	for _, r := range reqs {
		if seen[r.ID] {
			return nil, fmt.Errorf("batch: duplicate request ID %q", r.ID)
		}
		seen[r.ID] = true
	}

	bud := &budget{remaining: e.cfg.BudgetTokens, unlimited: e.cfg.BudgetTokens == 0}

	// Rate limiter: a shared ticker paces dispatches across workers.
	// The interval is clamped to ≥1ns: above ~1e9 QPS the division
	// rounds to zero, which time.NewTicker panics on.
	var tick <-chan time.Time
	if e.cfg.QPS > 0 {
		interval := time.Duration(float64(time.Second) / e.cfg.QPS)
		if interval < time.Nanosecond {
			interval = time.Nanosecond
		}
		t := time.NewTicker(interval)
		defer t.Stop()
		tick = t.C
	}

	work := make(chan Request)
	var wg sync.WaitGroup
	var outMu sync.Mutex
	record := func(r Request, o Outcome) {
		outMu.Lock()
		res.Outcomes[r.ID] = o
		switch {
		case errors.Is(o.Err, ErrBudgetExhausted):
			res.Skipped++
		case o.Err != nil:
			res.Failed++
		case o.Cached:
			res.CacheHits++
		}
		outMu.Unlock()
		if e.cfg.OnOutcome != nil {
			e.cfg.OnOutcome(r, o)
		}
	}

	rec := obs.Active(e.cfg.Obs)
	for i := 0; i < e.cfg.Workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range work {
				rec.Set(metricBatchInflight, float64(e.inflight.Add(1)))
				o := e.one(ctx, r, bud, tick, rec)
				if o.Finished.IsZero() {
					o.Finished = time.Now()
				}
				rec.Set(metricBatchInflight, float64(e.inflight.Add(-1)))
				record(r, o)
			}
		}()
	}

feed:
	for _, r := range reqs {
		select {
		case work <- r:
		case <-ctx.Done():
			break feed
		}
	}
	close(work)
	wg.Wait()
	// Workers race their gauge updates; settle it now that none run.
	rec.Set(metricBatchInflight, 0)

	// Requests never dispatched because the context ended.
	for _, r := range reqs {
		if _, ok := res.Outcomes[r.ID]; !ok {
			record(r, Outcome{Err: ctx.Err()})
			rec.Add(metricBatchRequests, 1, "outcome", "undispatched")
		}
	}
	res.TokensUsed = bud.spent

	e.mu.Lock()
	logErr := e.logErr
	e.mu.Unlock()
	if logErr != nil {
		return res, fmt.Errorf("batch: audit log failed: %w", logErr)
	}
	return res, nil
}

// abortReason labels context-ended outcomes for the abort counter.
func abortReason(err error) string {
	if errors.Is(err, context.DeadlineExceeded) {
		return "deadline"
	}
	return "canceled"
}

// charger accumulates a request's billed wall-clock so one() can
// charge the residual (executor overhead no stage claims) at the end,
// making billed stages tile the whole request. A nil charger is a
// no-op, so uninstrumented runs skip all of it.
type charger struct {
	ctx    context.Context
	billed time.Duration
}

func (c *charger) charge(stage string, wall time.Duration, tokens int, billed bool) {
	if c == nil {
		return
	}
	if billed && wall > 0 {
		c.billed += wall
	}
	obs.Charge(c.ctx, stage, wall, tokens, billed)
}

// one executes a single request on one path: single-flight by prompt,
// then the answer-store lookup (when Disk is set), then the budget
// guard and rate-paced predictor attempts with write-through.
func (e *Executor) one(ctx context.Context, r Request, bud *budget, tick <-chan time.Time, rec obs.Recorder) Outcome {
	digest := promptDigest(r.Prompt)
	live := obs.Enabled(rec)
	var span *obs.Span
	var ch *charger
	var pickup time.Time
	qctx := ctx
	if live {
		pickup = time.Now()
		if r.Ctx != nil {
			// Graft the query's trace values onto the batch context:
			// span/ledger from the per-request context, cancellation
			// from Execute's.
			if led := obs.LedgerFromContext(r.Ctx); led != nil {
				qctx = obs.ContextWithLedger(qctx, led)
			}
			if root := obs.SpanFromContext(r.Ctx); root != nil {
				qctx = obs.ContextWithSpan(qctx, root)
				// Queue wait: the request existed since its root span
				// opened, but no worker saw it until now.
				if wait := pickup.Sub(root.StartTime()); wait > 0 {
					_, qsp := obs.StartSpanCtxAt(qctx, rec, "batch.queue", root.StartTime())
					qsp.EndAt(pickup)
					obs.Charge(qctx, obs.StageQueue, wait, 0, true)
				}
			}
		}
		qctx, span = obs.StartSpanCtx(qctx, rec, "batch.request", "id", r.ID)
		ch = &charger{ctx: qctx}
	}
	done := func(o Outcome, outcome string) Outcome {
		rec.Add(metricBatchRequests, 1, "outcome", outcome)
		if live {
			end := time.Now()
			if resid := end.Sub(pickup) - ch.billed; resid > 0 {
				ch.charge(obs.StageExec, resid, 0, true)
			}
			span.SetAttr("outcome", outcome)
			span.SetAttr("attempts", fmt.Sprint(o.Attempts))
			span.EndAt(end)
			// The caller closes its query span and ledger at Finished,
			// so ending both here at the residual's own instant leaves
			// no unbilled gap between them.
			o.Finished = end
		}
		return o
	}
	// cacheResolved notes a request answered without a fresh predictor
	// call: a child span for the tier that answered, and a billed cache
	// charge carrying the response's token count — the caller's meter
	// counts cached answers, so the ledger must bill them to a stage.
	cacheResolved := func(tier string, resp llm.Response) {
		if !live {
			return
		}
		_, csp := obs.StartSpanCtxAt(qctx, rec, "batch.cache", pickup, "tier", tier)
		csp.End()
		ch.charge(obs.StageCache, time.Since(pickup), resp.InputTokens+resp.OutputTokens, true)
	}

	// Single-flight: if another worker is already resolving this exact
	// prompt, wait for its answer instead of paying for a duplicate call
	// (the classic cache-stampede fix).
	e.mu.Lock()
	if fc, ok := e.flight[r.Prompt]; ok {
		e.mu.Unlock()
		select {
		case <-fc.done:
		case <-ctx.Done():
			rec.Add(metricBatchAborts, 1, "reason", abortReason(ctx.Err()))
			return done(Outcome{Err: ctx.Err()}, "aborted")
		}
		if fc.err != nil {
			e.log(logLine{ID: r.ID, PromptSHA256: digest, Error: fc.err.Error()})
			cacheResolved("coalesced", llm.Response{})
			switch {
			case errors.Is(fc.err, ErrBudgetExhausted):
				return done(Outcome{Err: fc.err}, "skipped")
			case errors.Is(fc.err, llm.ErrCircuitOpen):
				return done(Outcome{Err: fc.err}, "rejected")
			}
			return done(Outcome{Err: fc.err}, "error")
		}
		e.log(logLine{ID: r.ID, PromptSHA256: digest, Category: fc.resp.Category, Cached: true})
		cacheResolved("coalesced", fc.resp)
		return done(Outcome{Response: fc.resp, Cached: true}, "coalesced")
	}
	fc := &flightCall{done: make(chan struct{})}
	e.flight[r.Prompt] = fc
	e.mu.Unlock()
	var o Outcome
	var label string
	if resp, ok := e.diskGet(r.Prompt); ok {
		// An earlier run (or an earlier stage of this one) already paid
		// for this prompt.
		o, label = Outcome{Response: resp, Cached: true}, "disk"
		e.log(logLine{ID: r.ID, PromptSHA256: digest, Category: resp.Category, Cached: true})
		cacheResolved("disk", resp)
	} else {
		o, label = e.attempt(qctx, r, bud, tick, rec, digest, live, ch)
	}
	fc.resp, fc.err = o.Response, o.Err
	e.mu.Lock()
	delete(e.flight, r.Prompt)
	e.mu.Unlock()
	close(fc.done)
	return done(o, label)
}

// attempt runs the budget guard and the rate-paced retry loop for one
// request, returning the outcome and its metric label. ctx carries the
// query's span/ledger values (one() grafted them), so spans opened
// here — backoff, attempt N — nest under the batch.request span and
// charges land on the query's ledger.
func (e *Executor) attempt(ctx context.Context, r Request, bud *budget, tick <-chan time.Time, rec obs.Recorder, digest string, live bool, ch *charger) (Outcome, string) {
	if !bud.tryReserve() {
		e.log(logLine{ID: r.ID, PromptSHA256: digest, Error: ErrBudgetExhausted.Error()})
		return Outcome{Err: ErrBudgetExhausted}, "skipped"
	}

	var lastErr error
	for attempt := 1; attempt <= e.cfg.MaxRetries+1; attempt++ {
		if attempt > 1 {
			rec.Add(metricBatchRetries, 1)
			delay := retryBackoff(e.cfg.RetryDelay, e.cfg.MaxRetryDelay, attempt-1)
			// The server knows when capacity returns.
			var apiErr *llm.APIError
			if errors.As(lastErr, &apiErr) && apiErr.RetryAfter > 0 {
				delay = min(apiErr.RetryAfter, e.cfg.MaxRetryDelay)
			}
			var bsp *obs.Span
			if live {
				_, bsp = obs.StartSpanCtx(ctx, rec, "batch.backoff", "attempt", fmt.Sprint(attempt))
			}
			select {
			case <-time.After(delay):
				bsp.End()
				ch.charge(obs.StageBackoff, delay, 0, true)
			case <-ctx.Done():
				bsp.End()
				rec.Add(metricBatchAborts, 1, "reason", abortReason(ctx.Err()))
				return Outcome{Err: ctx.Err(), Attempts: attempt - 1}, "aborted"
			}
		}
		if tick != nil {
			var tstart time.Time
			if live {
				tstart = time.Now()
			}
			select {
			case <-tick:
				rec.Add(metricBatchThrottled, 1)
				if live {
					ch.charge(obs.StageThrottle, time.Since(tstart), 0, true)
				}
			case <-ctx.Done():
				rec.Add(metricBatchAborts, 1, "reason", abortReason(ctx.Err()))
				return Outcome{Err: ctx.Err(), Attempts: attempt - 1}, "aborted"
			}
		}
		var start time.Time
		actx := ctx
		var asp *obs.Span
		if live {
			start = time.Now()
			actx, asp = obs.StartSpanCtx(ctx, rec, "batch.attempt", "n", fmt.Sprint(attempt))
		}
		resp, err := e.query(actx, r.Prompt)
		rejected := errors.Is(err, llm.ErrCircuitOpen)
		if live {
			wall := time.Since(start)
			rec.Observe(metricBatchAttempt, wall.Seconds())
			switch {
			case err == nil:
				asp.SetAttr("outcome", "ok")
				ch.charge(obs.StagePredict, wall, resp.InputTokens+resp.OutputTokens, true)
			case rejected:
				asp.SetAttr("outcome", "rejected")
				ch.charge(obs.StageBreaker, wall, 0, true)
			default:
				asp.SetAttr("outcome", "error")
				// Failed attempts are serial wall-clock on this query's
				// path, but they bought nothing: billed time, zero
				// tokens, under the retry stage.
				ch.charge(obs.StageRetry, wall, 0, true)
			}
			asp.End()
		}
		if err == nil {
			bud.charge(resp.InputTokens + resp.OutputTokens)
			rec.Add(metricBatchTokens, float64(resp.InputTokens+resp.OutputTokens))
			if e.cfg.Disk != nil {
				// Write-through is best-effort: a full or failing disk
				// loses persistence, not the (already correct) answer.
				_ = e.cfg.Disk.Put(promptcache.KeyOf(e.cfg.CacheNamespace, r.Prompt), resp)
			}
			e.log(logLine{
				ID: r.ID, PromptSHA256: digest,
				InputTokens: resp.InputTokens, OutputTokens: resp.OutputTokens,
				Category: resp.Category, Attempts: attempt,
			})
			return Outcome{Response: resp, Attempts: attempt}, "ok"
		}
		if rejected {
			// Every replica's breaker is open, so no replica received
			// this attempt. Fail fast — a retry would only be refused
			// again — leaving graceful degradation (surrogate fallback)
			// to the caller instead of queuing behind a backend presumed
			// down.
			e.log(logLine{ID: r.ID, PromptSHA256: digest, Attempts: attempt - 1, Error: err.Error()})
			return Outcome{Err: err, Attempts: attempt - 1}, "rejected"
		}
		lastErr = err
		if ctx.Err() != nil {
			// The batch was canceled mid-call; not the backend's fault.
			rec.Add(metricBatchAborts, 1, "reason", abortReason(ctx.Err()))
			return Outcome{Err: ctx.Err(), Attempts: attempt}, "aborted"
		}
		if errors.Is(err, llm.ErrQueryTimeout) {
			rec.Add(metricBatchTimeouts, 1)
			continue
		}
		if llm.Permanent(err) {
			// The request's fault, not the backend's — not retried.
			e.log(logLine{ID: r.ID, PromptSHA256: digest, Attempts: attempt, Error: err.Error()})
			return Outcome{Err: err, Attempts: attempt}, "error"
		}
	}
	e.log(logLine{ID: r.ID, PromptSHA256: digest, Attempts: e.cfg.MaxRetries + 1, Error: lastErr.Error()})
	return Outcome{
		Err:      fmt.Errorf("batch: request %q failed after %d attempts: %w", r.ID, e.cfg.MaxRetries+1, lastErr),
		Attempts: e.cfg.MaxRetries + 1,
	}, "error"
}

// defaultMaxRetryDelay is the default backoff ceiling.
const defaultMaxRetryDelay = 30 * time.Second

// retryBackoff returns the exponential backoff before retry attempt
// (attempt ≥ 1 is the first retry): base doubled attempt−1 times,
// capped at max. The cap is what keeps very long retry schedules sane —
// unchecked doubling overflows time.Duration into a negative value,
// which time.After treats as "fire now". New guarantees base, max > 0.
func retryBackoff(base, max time.Duration, attempt int) time.Duration {
	d := base
	for i := 1; i < attempt; i++ {
		if d >= max/2 {
			return max
		}
		d *= 2
	}
	return min(d, max)
}

// diskGet consults the persistent tier, when configured.
func (e *Executor) diskGet(prompt string) (llm.Response, bool) {
	if e.cfg.Disk == nil {
		return llm.Response{}, false
	}
	return e.cfg.Disk.Get(promptcache.KeyOf(e.cfg.CacheNamespace, prompt))
}

// query runs one predictor attempt under the per-query deadline. The
// deadline's cause is llm.ErrQueryTimeout, so the layers below can tell a
// backend too slow to answer from a caller that gave up.
func (e *Executor) query(ctx context.Context, promptText string) (llm.Response, error) {
	if e.cfg.QueryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeoutCause(ctx, e.cfg.QueryTimeout, llm.ErrQueryTimeout)
		defer cancel()
	}
	resp, err := e.p.QueryContext(ctx, promptText)
	if err != nil && errors.Is(context.Cause(ctx), llm.ErrQueryTimeout) {
		return llm.Response{}, fmt.Errorf("%w after %v: %v", llm.ErrQueryTimeout, e.cfg.QueryTimeout, err)
	}
	return resp, err
}
