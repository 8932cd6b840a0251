package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/predictors"
	"repro/internal/tag"
	"repro/internal/xrand"
)

// fixture bundles a generated dataset with a context and simulated LLM.
type fixture struct {
	g     *tag.Graph
	split tag.Split
	seed  uint64
}

func newFixture(t testing.TB, nodes, queries int, seed uint64) *fixture {
	t.Helper()
	spec, err := tag.SmallSpec("cora", nodes)
	if err != nil {
		t.Fatal(err)
	}
	g := tag.Generate(spec, seed, tag.Options{})
	split := g.SplitPerClass(xrand.New(seed+1), 20, queries)
	return &fixture{g: g, split: split, seed: seed}
}

// freshCtx returns an independent context so serve-tier and batch-shaped
// executions cannot observe each other's state.
func (f *fixture) freshCtx() *predictors.Context {
	return &predictors.Context{
		Graph: f.g,
		Known: predictors.KnownFromSplit(f.g, f.split),
		M:     4,
		Seed:  f.seed,
	}
}

func (f *fixture) freshSim() *llm.Sim {
	return llm.NewSim(llm.GPT35(), f.g.Vocab, f.g.Classes, f.seed+2)
}

// countingPredictor counts calls reaching the inner predictor — the
// spend the serve tier's coalescing failed to absorb.
type countingPredictor struct {
	inner llm.Predictor
	calls atomic.Int64
}

func (c *countingPredictor) Name() string { return c.inner.Name() }

func (c *countingPredictor) Query(prompt string) (llm.Response, error) {
	c.calls.Add(1)
	return c.inner.Query(prompt)
}

// gatedPredictor blocks every call until released, so tests can hold a
// window in execution while the queue builds behind it.
type gatedPredictor struct {
	inner llm.Predictor
	gate  chan struct{}
}

func (g *gatedPredictor) Name() string { return g.inner.Name() }

func (g *gatedPredictor) Query(prompt string) (llm.Response, error) {
	<-g.gate
	return g.inner.Query(prompt)
}

func newServer(t testing.TB, f *fixture, p llm.Predictor, cfg Config) *Server {
	t.Helper()
	if cfg.Exec.Workers == 0 {
		cfg.Exec.Workers = 4
	}
	s, err := New(f.freshCtx(), predictors.KHopRandom{K: 1}, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// TestCoalescingSingleFlight is the tentpole's coalescing proof: K
// concurrent identical requests from distinct tenants pay exactly one
// predictor call, every tenant gets the same answer, and that answer is
// bit-identical to batch-shaped execution of the same query.
func TestCoalescingSingleFlight(t *testing.T) {
	f := newFixture(t, 300, 40, 7)
	node := f.split.Query[0]
	reg := obs.NewRegistry()
	counter := &countingPredictor{inner: f.freshSim()}
	s := newServer(t, f, counter, Config{Window: 25 * time.Millisecond, Obs: reg})

	const K = 8
	results := make([]Result, K)
	var wg sync.WaitGroup
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := s.Submit(context.Background(), fmt.Sprintf("tenant-%d", i), node)
			if err != nil {
				t.Errorf("tenant %d: %v", i, err)
				return
			}
			results[i] = r
		}(i)
	}
	wg.Wait()

	if got := counter.calls.Load(); got != 1 {
		t.Fatalf("predictor calls = %d, want exactly 1 for %d coalesced tenants", got, K)
	}
	batchRes, err := core.ExecuteWith(f.freshCtx(), predictors.KHopRandom{K: 1},
		f.freshSim(), core.Plan{Queries: []tag.NodeID{node}}, core.ExecConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := batchRes.Pred[node]
	coalesced := 0
	for i, r := range results {
		if r.Category != want {
			t.Fatalf("tenant %d answer %q differs from batch-shaped %q", i, r.Category, want)
		}
		if r.Response != results[0].Response {
			t.Fatalf("tenant %d response differs: %+v vs %+v", i, r.Response, results[0].Response)
		}
		if r.Coalesced {
			coalesced++
		}
	}
	if coalesced != K-1 {
		t.Fatalf("coalesced results = %d, want %d (one owner)", coalesced, K-1)
	}
	total := 0.0
	for _, tier := range []string{"memory", "inflight", "window"} {
		total += reg.CounterValue(metricCoalesced, "tier", tier)
	}
	if total != K-1 {
		t.Fatalf("mqo_serve_coalesced_total across tiers = %v, want %d", total, K-1)
	}
	if got := reg.CounterValue(metricQueries, "outcome", "ok"); got != K {
		t.Fatalf("mqo_serve_queries_total{outcome=ok} = %v, want %d", got, K)
	}
	if reg.CounterValue(metricFlushes) < 1 {
		t.Fatal("mqo_serve_window_flushes_total never incremented")
	}
}

// TestAnswersMatchBatchExecution drives a disjoint query set through
// serve concurrently and checks every answer against batch-shaped
// execution of the identical plan.
func TestAnswersMatchBatchExecution(t *testing.T) {
	f := newFixture(t, 300, 40, 11)
	nodes := f.split.Query[:20]
	s := newServer(t, f, f.freshSim(), Config{Window: 10 * time.Millisecond})

	got := make([]Result, len(nodes))
	var wg sync.WaitGroup
	for i, v := range nodes {
		wg.Add(1)
		go func(i int, v tag.NodeID) {
			defer wg.Done()
			r, err := s.Submit(context.Background(), fmt.Sprintf("t%d", i%3), v)
			if err != nil {
				t.Errorf("node %d: %v", v, err)
				return
			}
			got[i] = r
		}(i, v)
	}
	wg.Wait()

	batchRes, err := core.ExecuteWith(f.freshCtx(), predictors.KHopRandom{K: 1},
		f.freshSim(), core.Plan{Queries: nodes}, core.ExecConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range nodes {
		if got[i].Category != batchRes.Pred[v] {
			t.Fatalf("node %d: serve %q vs batch %q", v, got[i].Category, batchRes.Pred[v])
		}
	}
}

// TestWarmRerunZeroPredictorCalls re-runs a query set through the serve
// memory and expects zero additional predictor calls.
func TestWarmRerunZeroPredictorCalls(t *testing.T) {
	f := newFixture(t, 300, 40, 13)
	nodes := f.split.Query[:10]
	reg := obs.NewRegistry()
	counter := &countingPredictor{inner: f.freshSim()}
	s := newServer(t, f, counter, Config{Window: 5 * time.Millisecond, Obs: reg})

	for _, v := range nodes {
		if _, err := s.Submit(context.Background(), "alice", v); err != nil {
			t.Fatal(err)
		}
	}
	cold := counter.calls.Load()
	if cold == 0 {
		t.Fatal("cold run made no predictor calls")
	}
	for _, v := range nodes {
		r, err := s.Submit(context.Background(), "bob", v)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Coalesced {
			t.Fatalf("warm answer for node %d not marked coalesced", v)
		}
	}
	if got := counter.calls.Load(); got != cold {
		t.Fatalf("warm re-run made %d extra predictor calls", got-cold)
	}
	if got := reg.CounterValue(metricCoalesced, "tier", "memory"); got != float64(len(nodes)) {
		t.Fatalf("memory-tier coalesced = %v, want %d", got, len(nodes))
	}
}

// TestQueueFullRejects holds a window in execution while the queue
// fills, then asserts the high-water mark rejects with ErrQueueFull and
// the queue never exceeds its bound.
func TestQueueFullRejects(t *testing.T) {
	f := newFixture(t, 300, 40, 17)
	reg := obs.NewRegistry()
	gate := &gatedPredictor{inner: f.freshSim(), gate: make(chan struct{})}
	const maxQueue = 4
	s := newServer(t, f, gate, Config{
		Window: time.Millisecond, MaxQueue: maxQueue, RetryAfter: 2 * time.Second, Obs: reg,
	})

	var wg sync.WaitGroup
	submit := func(v tag.NodeID) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Submit(context.Background(), "flood", v); err != nil {
				t.Errorf("admitted request failed: %v", err)
			}
		}()
	}
	// First request flushes into execution and blocks on the gate.
	submit(f.split.Query[0])
	waitFor(t, func() bool { return len(s.inflightNodes()) > 0 })
	// The next maxQueue requests (distinct nodes) fill the queue.
	for i := 1; i <= maxQueue; i++ {
		submit(f.split.Query[i])
	}
	waitFor(t, func() bool { return s.QueueDepth() == maxQueue })

	if _, err := s.Submit(context.Background(), "flood", f.split.Query[maxQueue+1]); err != ErrQueueFull {
		t.Fatalf("past high-water mark: err = %v, want ErrQueueFull", err)
	}
	if d := s.QueueDepth(); d > maxQueue {
		t.Fatalf("queue depth %d exceeds bound %d", d, maxQueue)
	}
	if got := reg.CounterValue(metricRejected, "reason", "queue_full"); got != 1 {
		t.Fatalf("mqo_serve_rejected_total{reason=queue_full} = %v, want 1", got)
	}
	close(gate.gate)
	wg.Wait()
}

// TestQueueDepthPeakGauge floods a gated predictor and asserts the
// queue-depth gauge's high-water mark equals the observed bound — the
// regression the load harness depends on: before the fix the gauge was
// overwritten with 0 at flush (and written outside the lock), so an
// open-loop flood that drained before a scrape reported peak depth 0.
func TestQueueDepthPeakGauge(t *testing.T) {
	f := newFixture(t, 300, 40, 37)
	reg := obs.NewRegistry()
	gate := &gatedPredictor{inner: f.freshSim(), gate: make(chan struct{})}
	const maxQueue = 5
	s := newServer(t, f, gate, Config{
		Window: time.Millisecond, MaxQueue: maxQueue, Obs: reg,
	})

	var wg sync.WaitGroup
	submit := func(v tag.NodeID) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Submit(context.Background(), "flood", v); err != nil {
				t.Errorf("admitted request failed: %v", err)
			}
		}()
	}
	// One request flushes into execution and blocks on the gate; the
	// next maxQueue distinct nodes fill the admission queue to its bound.
	submit(f.split.Query[0])
	waitFor(t, func() bool { return len(s.inflightNodes()) > 0 })
	for i := 1; i <= maxQueue; i++ {
		submit(f.split.Query[i])
	}
	waitFor(t, func() bool { return s.QueueDepth() == maxQueue })
	// The current-depth gauge must already show the full queue while the
	// flood is still live — enqueue-time updates, not flush sampling.
	if got := reg.GaugeValue("mqo_serve_queue_depth"); got != maxQueue {
		t.Fatalf("mqo_serve_queue_depth during flood = %v, want %d", got, maxQueue)
	}
	close(gate.gate)
	wg.Wait()
	// Drained: the live gauge returns to 0 but the peak must survive.
	waitFor(t, func() bool { return s.QueueDepth() == 0 })
	if got := s.QueuePeak(); got != maxQueue {
		t.Fatalf("QueuePeak() = %d, want %d", got, maxQueue)
	}
	if got := reg.GaugeValue("mqo_serve_queue_depth_peak"); got != maxQueue {
		t.Fatalf("mqo_serve_queue_depth_peak = %v, want %d (peak lost after drain)", got, maxQueue)
	}
}

// TestTenantQuota exhausts one tenant's token budget and asserts the
// next request is rejected while other tenants keep flowing.
func TestTenantQuota(t *testing.T) {
	f := newFixture(t, 300, 40, 19)
	reg := obs.NewRegistry()
	s := newServer(t, f, f.freshSim(), Config{
		Window: time.Millisecond, TenantBudget: 1, Obs: reg,
	})

	if _, err := s.Submit(context.Background(), "alice", f.split.Query[0]); err != nil {
		t.Fatal(err)
	}
	if s.TenantSpend("alice") < 1 {
		t.Fatal("delivered answer did not debit the tenant")
	}
	if _, err := s.Submit(context.Background(), "alice", f.split.Query[1]); err == nil ||
		!strings.Contains(err.Error(), "quota") {
		t.Fatalf("over-budget tenant: err = %v, want ErrQuotaExhausted", err)
	}
	if _, err := s.Submit(context.Background(), "bob", f.split.Query[1]); err != nil {
		t.Fatalf("unrelated tenant rejected: %v", err)
	}
	if got := reg.CounterValue(metricRejected, "reason", "quota"); got != 1 {
		t.Fatalf("mqo_serve_rejected_total{reason=quota} = %v, want 1", got)
	}
}

// TestInterleaveFairRoundRobin pins the scheduling order: one request
// per tenant per cycle, tenants sorted, arrival order kept per tenant.
func TestInterleaveFairRoundRobin(t *testing.T) {
	mk := func(tenant string, node int) *pending {
		return &pending{tenant: tenant, node: tag.NodeID(node)}
	}
	in := []*pending{
		mk("b", 1), mk("b", 2), mk("b", 3), mk("a", 4), mk("c", 5), mk("b", 6),
	}
	var got []int
	for _, p := range interleave(in) {
		got = append(got, int(p.node))
	}
	want := []int{4, 1, 5, 2, 3, 6}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("interleave order = %v, want %v", got, want)
		}
	}
}

// TestDrainRejectsNewAnswersAdmitted closes the server while requests
// are queued: every admitted request must still be answered, and new
// submissions must be rejected with ErrDraining.
func TestDrainRejectsNewAnswersAdmitted(t *testing.T) {
	f := newFixture(t, 300, 40, 23)
	s := newServer(t, f, f.freshSim(), Config{Window: 50 * time.Millisecond})

	const K = 6
	errs := make([]error, K)
	var wg sync.WaitGroup
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.Submit(context.Background(), "t", f.split.Query[i])
		}(i)
	}
	waitFor(t, func() bool { return s.QueueDepth() == K })
	s.Close()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("admitted request %d dropped during drain: %v", i, err)
		}
	}
	if _, err := s.Submit(context.Background(), "t", f.split.Query[K]); err != ErrDraining {
		t.Fatalf("post-drain submit: err = %v, want ErrDraining", err)
	}
	s.Close() // idempotent
}

// TestUnknownNodeRejected bounds-checks node IDs at admission.
func TestUnknownNodeRejected(t *testing.T) {
	f := newFixture(t, 300, 40, 29)
	s := newServer(t, f, f.freshSim(), Config{})
	for _, v := range []int{-1, f.g.NumNodes()} {
		if _, err := s.Submit(context.Background(), "t", tag.NodeID(v)); err == nil ||
			!strings.Contains(err.Error(), "unknown node") {
			t.Fatalf("node %d: err = %v, want ErrUnknownNode", v, err)
		}
	}
}

// --- HTTP handler ---

func TestTenantResolution(t *testing.T) {
	cases := []struct {
		name, xTenant, auth, want string
	}{
		{"x-tenant wins", "team-a", "Bearer k-123", "team-a"},
		{"bearer key", "", "Bearer k-123", "k-123"},
		{"anonymous", "", "", "anonymous"},
		{"malformed auth", "", "Basic zzz", "anonymous"},
	}
	for _, c := range cases {
		r := httptest.NewRequest(http.MethodPost, QueryPath, nil)
		if c.xTenant != "" {
			r.Header.Set("X-Tenant", c.xTenant)
		}
		if c.auth != "" {
			r.Header.Set("Authorization", c.auth)
		}
		if got := Tenant(r); got != c.want {
			t.Fatalf("%s: tenant = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestHandlerQueryAndErrors(t *testing.T) {
	f := newFixture(t, 300, 40, 31)
	s := newServer(t, f, f.freshSim(), Config{Window: time.Millisecond, TenantBudget: 1})
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	post := func(tenant string, body string) *http.Response {
		t.Helper()
		req, _ := http.NewRequest(http.MethodPost, ts.URL+QueryPath, strings.NewReader(body))
		req.Header.Set("X-Tenant", tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	node := int(f.split.Query[0])
	resp := post("alice", fmt.Sprintf(`{"node": %d}`, node))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status = %d", resp.StatusCode)
	}
	var qr QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if qr.Node != node || qr.Category == "" || qr.Tenant != "alice" || qr.OutputTokens == 0 {
		t.Fatalf("bad response body: %+v", qr)
	}

	// Same tenant again: budget of 1 token is exhausted → 429 + Retry-After.
	resp = post("alice", fmt.Sprintf(`{"node": %d}`, node))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 missing Retry-After header")
	}
	resp.Body.Close()

	resp = post("bob", `{"node": -5}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown node status = %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	resp = post("bob", `{not json`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON status = %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	getResp, err := http.Get(ts.URL + QueryPath)
	if err != nil {
		t.Fatal(err)
	}
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status = %d, want 405", getResp.StatusCode)
	}
	getResp.Body.Close()

	s.Close()
	resp = post("carol", fmt.Sprintf(`{"node": %d}`, node))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 missing Retry-After header")
	}
	resp.Body.Close()
}

// downPredictor is a dead backend: every call is a 503.
type downPredictor struct{ calls atomic.Int64 }

func (d *downPredictor) Name() string { return "down" }

func (d *downPredictor) Query(string) (llm.Response, error) {
	d.calls.Add(1)
	return llm.Response{}, &llm.APIError{StatusCode: http.StatusServiceUnavailable, Message: "down"}
}

// TestBreakerOutlivesWindows: backend health belongs to the server, not
// to one micro-batching window. Sequential submissions each flush their
// own window; after Threshold failures the breaker is open for every
// later window, so the dead backend sees exactly Threshold calls and
// the rest fail fast with ErrCircuitOpen without an attempt.
func TestBreakerOutlivesWindows(t *testing.T) {
	f := newFixture(t, 300, 40, 9)
	reg := obs.NewRegistry()
	pctx := f.freshCtx()
	pctx.Obs = reg
	down := &downPredictor{}
	s, err := New(pctx, predictors.KHopRandom{K: 1}, down, Config{
		Window: time.Millisecond,
		Exec:   core.ExecConfig{Workers: 1, Breaker: pool.BreakerConfig{Threshold: 2, Cooldown: time.Hour}},
		Obs:    reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	errs := make([]error, 10)
	for i, node := range f.split.Query[:len(errs)] {
		_, errs[i] = s.Submit(context.Background(), "tenant", node)
	}
	if got := down.calls.Load(); got != 2 {
		t.Fatalf("dead backend got %d calls over %d windows, want 2 (the breaker threshold)", got, len(errs))
	}
	for i, err := range errs {
		var apiErr *llm.APIError
		switch {
		case i < 2 && !errors.As(err, &apiErr):
			t.Fatalf("submit %d: err %v, want the backend's 503", i, err)
		case i >= 2 && !errors.Is(err, llm.ErrCircuitOpen):
			t.Fatalf("submit %d: err %v, want ErrCircuitOpen", i, err)
		}
	}
	// No retries are configured, so a rejected request made 0 attempts.
	if got := reg.CounterValue("mqo_batch_requests_total", "outcome", "rejected"); got != 8 {
		t.Fatalf("rejected requests = %v, want 8", got)
	}
}

// waitFor polls cond for up to 2s.
func waitFor(t testing.TB, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition never became true")
}

// inflightNodes snapshots the executing window's unique nodes (test hook).
func (s *Server) inflightNodes() []tag.NodeID {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]tag.NodeID, 0, len(s.inflight))
	for v := range s.inflight {
		out = append(out, v)
	}
	return out
}
