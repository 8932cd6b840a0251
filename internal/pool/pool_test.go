package pool

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/llm"
	"repro/internal/obs"
)

// fakePred is a controllable ContextPredictor: per-call latency, a
// scripted error, and counters for calls, completions and observed
// cancellations.
type fakePred struct {
	name  string
	id    string
	delay time.Duration
	err   error
	// answer, when non-nil, overrides the default echo response.
	answer func(prompt string) llm.Response

	calls     atomic.Int64
	completed atomic.Int64
	canceled  atomic.Int64
}

func (f *fakePred) Name() string { return f.name }

func (f *fakePred) Identity() string {
	if f.id != "" {
		return f.id
	}
	return f.name
}

func (f *fakePred) Query(prompt string) (llm.Response, error) {
	return f.QueryContext(context.Background(), prompt)
}

func (f *fakePred) QueryContext(ctx context.Context, prompt string) (llm.Response, error) {
	f.calls.Add(1)
	if f.delay > 0 {
		t := time.NewTimer(f.delay)
		defer t.Stop()
		select {
		case <-ctx.Done():
			f.canceled.Add(1)
			return llm.Response{}, ctx.Err()
		case <-t.C:
		}
	}
	if f.err != nil {
		return llm.Response{}, f.err
	}
	f.completed.Add(1)
	if f.answer != nil {
		return f.answer(prompt), nil
	}
	return llm.Response{
		Text: f.name + ":" + prompt, Category: "C",
		InputTokens: len(prompt), OutputTokens: 3,
	}, nil
}

func mustPool(t *testing.T, cfg Config, replicas ...llm.Predictor) *Pool {
	t.Helper()
	p, err := New(replicas, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// states reports each replica's breaker position (closed for a slot
// without a breaker). Index i is replica i.
func states(p *Pool) []breakerState {
	out := make([]breakerState, len(p.replicas))
	for i, r := range p.replicas {
		if r.brk != nil {
			out[i] = r.brk.state()
		}
	}
	return out
}

func TestNewRejectsEmpty(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil {
		t.Fatal("New(nil) succeeded, want error")
	}
}

// TestIdentityTransparent: replicas sharing one identity make the pool
// identity-transparent, so promptcache namespaces are unchanged by the
// replica count — the property the golden warm-cache rows rely on.
func TestIdentityTransparent(t *testing.T) {
	a := &fakePred{name: "m", id: "m/seed=1"}
	p1 := mustPool(t, Config{}, a)
	p3 := mustPool(t, Config{}, a, a, a)
	if got := p1.Identity(); got != "m/seed=1" {
		t.Errorf("1-replica identity = %q, want m/seed=1", got)
	}
	if got := p3.Identity(); got != "m/seed=1" {
		t.Errorf("3-replica identity = %q, want m/seed=1", got)
	}
}

// TestIdentityFoldsDistinctReplicas: distinct backends answer
// differently, so the identity must fold the sorted set — in either
// construction order.
func TestIdentityFoldsDistinctReplicas(t *testing.T) {
	a := &fakePred{name: "a", id: "m@hostA"}
	b := &fakePred{name: "b", id: "m@hostB"}
	pab := mustPool(t, Config{}, a, b)
	pba := mustPool(t, Config{}, b, a)
	want := "pool(m@hostA|m@hostB)"
	if got := pab.Identity(); got != want {
		t.Errorf("Identity() = %q, want %q", got, want)
	}
	if got := pba.Identity(); got != pab.Identity() {
		t.Errorf("identity depends on replica order: %q vs %q", got, pab.Identity())
	}
}

// TestRoutingPreservesAnswers: with replicas that answer as a pure
// function of the prompt, plan outputs are identical for any replica
// count and hedging setting — the determinism contract.
func TestRoutingPreservesAnswers(t *testing.T) {
	answer := func(prompt string) llm.Response {
		return llm.Response{Text: "ans:" + prompt, Category: strings.ToUpper(prompt)}
	}
	mk := func() *fakePred { return &fakePred{name: "m", id: "m/seed=1", answer: answer} }
	prompts := make([]string, 50)
	for i := range prompts {
		prompts[i] = fmt.Sprintf("prompt-%d", i)
	}
	want := map[string]string{}
	for _, pr := range prompts {
		want[pr] = answer(pr).Category
	}

	for name, pl := range map[string]*Pool{
		"1-replica":       mustPool(t, Config{}, mk()),
		"3-replica":       mustPool(t, Config{}, mk(), mk(), mk()),
		"3-replica-hedge": mustPool(t, Config{Hedge: true, HedgeAfter: time.Nanosecond}, mk(), mk(), mk()),
	} {
		var wg sync.WaitGroup
		got := make([]string, len(prompts))
		for i, pr := range prompts {
			wg.Add(1)
			go func(i int, pr string) {
				defer wg.Done()
				resp, err := pl.QueryContext(context.Background(), pr)
				if err != nil {
					t.Errorf("%s: query %q: %v", name, pr, err)
					return
				}
				got[i] = resp.Category
			}(i, pr)
		}
		wg.Wait()
		for i, pr := range prompts {
			if got[i] != want[pr] {
				t.Errorf("%s: prompt %q answered %q, want %q", name, pr, got[i], want[pr])
			}
		}
	}
}

// TestHedging is the table-driven contract for hedged requests.
func TestHedging(t *testing.T) {
	hang := 30 * time.Second // far beyond any test deadline; canceled, not waited
	tests := []struct {
		name       string
		primary    *fakePred
		hedgeAfter time.Duration
		wantHedges float64
		wantWins   float64
	}{
		{
			name:       "no hedge before HedgeAfter",
			primary:    &fakePred{name: "fast", id: "x"},
			hedgeAfter: 5 * time.Second, // primary answers instantly; timer never fires
			wantHedges: 0,
			wantWins:   0,
		},
		{
			name:       "hedge fires and wins when primary hangs",
			primary:    &fakePred{name: "slow", id: "x", delay: hang},
			hedgeAfter: time.Millisecond,
			wantHedges: 1,
			wantWins:   1,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			secondary := &fakePred{name: "second", id: "x"}
			// Seed chosen so the hung primary is picked first isn't
			// guaranteed; pin it by making the secondary busy-looking is
			// fragile — instead run until the slow replica was primary at
			// least once, or accept either pick for the fast case.
			pl := mustPool(t, Config{Hedge: true, HedgeAfter: tc.hedgeAfter, Obs: reg},
				tc.primary, secondary)

			resp, err := pl.QueryContext(context.Background(), "p")
			if err != nil {
				t.Fatalf("QueryContext: %v", err)
			}
			if resp.Text == "" {
				t.Fatal("empty response")
			}
			if got := reg.CounterValue("mqo_pool_hedges_total"); got != tc.wantHedges {
				// The pick is pseudo-random: the "hang" case only hedges
				// when the slow replica was picked first. Retry across
				// fresh queries until it is (bounded).
				if tc.wantHedges > 0 {
					hedged := got > 0
					for i := 0; i < 50 && !hedged; i++ {
						if _, err := pl.QueryContext(context.Background(), fmt.Sprintf("p%d", i)); err != nil {
							t.Fatalf("QueryContext: %v", err)
						}
						hedged = reg.CounterValue("mqo_pool_hedges_total") > 0
					}
					if !hedged {
						t.Fatalf("hedge never fired across 50 queries")
					}
				} else {
					t.Fatalf("hedges = %v, want %v", got, tc.wantHedges)
				}
			}
			if tc.wantWins > 0 {
				if got := reg.CounterValue("mqo_pool_hedge_wins_total"); got < tc.wantWins {
					t.Errorf("hedge wins = %v, want >= %v", got, tc.wantWins)
				}
				// The hung primary must have been canceled: its context
				// was torn down when the hedge won (or when QueryContext
				// returned and ran its deferred cancel).
				deadline := time.Now().Add(2 * time.Second)
				for tc.primary.canceled.Load() == 0 && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
				if tc.primary.canceled.Load() == 0 {
					t.Error("hung primary was never canceled after losing the hedge race")
				}
			}
		})
	}
}

// TestHedgeBillsWinnerOnce: the pool returns exactly one response per
// query, and the losing attempt never completes — so a token meter fed
// by the pool's caller counts the winner exactly once.
func TestHedgeBillsWinnerOnce(t *testing.T) {
	slow := &fakePred{name: "slow", id: "x", delay: 30 * time.Second}
	fast := &fakePred{name: "fast", id: "x"}
	reg := obs.NewRegistry()
	pl := mustPool(t, Config{Hedge: true, HedgeAfter: time.Millisecond, Obs: reg}, slow, fast)

	var inputTokens atomic.Int64
	const n = 40
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := pl.QueryContext(context.Background(), fmt.Sprintf("pp-%d", i))
			if err != nil {
				t.Errorf("query %d: %v", i, err)
				return
			}
			inputTokens.Add(int64(resp.InputTokens))
		}(i)
	}
	wg.Wait()
	// Every prompt is 5 bytes ("pp-N" is 4-5; compute exactly).
	var want int64
	for i := 0; i < n; i++ {
		want += int64(len(fmt.Sprintf("pp-%d", i)))
	}
	if got := inputTokens.Load(); got != want {
		t.Errorf("meter saw %d input tokens, want %d (double-billed hedges?)", got, want)
	}
	// The slow replica can only ever *complete* zero calls: every call
	// it received lost its race and was canceled.
	if got := slow.completed.Load(); got != 0 {
		t.Errorf("slow replica completed %d calls, want 0", got)
	}
}

// TestPerReplicaBreakerEjectsDeadReplica: a consistently failing
// replica is ejected (its breaker opens, the ejection counter ticks)
// while the healthy replica keeps answering.
func TestPerReplicaBreakerEjectsDeadReplica(t *testing.T) {
	reg := obs.NewRegistry()
	// The dead replica fails instantly while the healthy one takes real
	// time, so EWMA routing keeps steering traffic into the failures —
	// the classic fast-fail trap that per-replica breakers exist to
	// break. (Don't leave both replicas at zero latency: the scores then
	// differ only by scheduling noise and the test goes flaky.)
	dead := &fakePred{name: "dead", id: "x", err: errors.New("boom")}
	ok := &fakePred{name: "ok", id: "x", delay: 2 * time.Millisecond}
	pl := mustPool(t, Config{
		Breaker: BreakerConfig{Threshold: 2, Cooldown: time.Hour}, Obs: reg,
	}, dead, ok)

	// Drive queries until the dead replica's breaker opens; individual
	// errors are expected while it is still in rotation (retries are the
	// batch executor's job, not the pool's).
	for i := 0; i < 100 && states(pl)[0] != breakerOpen; i++ {
		_, _ = pl.QueryContext(context.Background(), fmt.Sprintf("q%d", i))
	}
	if got := states(pl)[0]; got != breakerOpen {
		t.Fatalf("dead replica breaker state = %v, want open", got)
	}
	if got := reg.CounterValue("mqo_pool_ejected_total", "replica", "0"); got != 1 {
		t.Errorf("ejected counter = %v, want 1", got)
	}
	// With the dead replica ejected, every query now succeeds.
	for i := 0; i < 20; i++ {
		if _, err := pl.QueryContext(context.Background(), fmt.Sprintf("after%d", i)); err != nil {
			t.Fatalf("query after ejection failed: %v", err)
		}
	}
	if got := states(pl)[1]; got != breakerClosed {
		t.Errorf("healthy replica breaker state = %v, want closed", got)
	}
}

// TestAllEjectedFailsFast: when every replica is ejected the pool
// reports llm.ErrCircuitOpen — the sentinel the executor's fallback
// path already understands.
func TestAllEjectedFailsFast(t *testing.T) {
	dead1 := &fakePred{name: "d1", id: "x", err: errors.New("boom")}
	dead2 := &fakePred{name: "d2", id: "x", err: errors.New("boom")}
	pl := mustPool(t, Config{
		Breaker: BreakerConfig{Threshold: 1, Cooldown: time.Hour},
	}, dead1, dead2)

	for i := 0; i < 50; i++ {
		_, _ = pl.QueryContext(context.Background(), fmt.Sprintf("q%d", i))
	}
	if _, err := pl.QueryContext(context.Background(), "final"); !errors.Is(err, llm.ErrCircuitOpen) {
		t.Fatalf("all-ejected error = %v, want llm.ErrCircuitOpen", err)
	}
}

// TestEjectedReplicaRecovers: after the cooldown a probe succeeds and
// the replica rejoins rotation.
func TestEjectedReplicaRecovers(t *testing.T) {
	// As above: the flaky replica fails fast, the healthy one is slower,
	// so routing deterministically offers the flaky one first.
	flaky := &fakePred{name: "flaky", id: "x", err: errors.New("boom")}
	ok := &fakePred{name: "ok", id: "x", delay: time.Millisecond}
	pl := mustPool(t, Config{
		Breaker: BreakerConfig{Threshold: 1, Cooldown: 5 * time.Millisecond},
	}, flaky, ok)

	for i := 0; i < 50 && states(pl)[0] != breakerOpen; i++ {
		_, _ = pl.QueryContext(context.Background(), fmt.Sprintf("q%d", i))
	}
	if states(pl)[0] != breakerOpen {
		t.Fatal("flaky replica never ejected")
	}
	flaky.err = nil // backend healed
	time.Sleep(10 * time.Millisecond)
	// Probe until the breaker closes again.
	for i := 0; i < 200 && states(pl)[0] != breakerClosed; i++ {
		_, _ = pl.QueryContext(context.Background(), fmt.Sprintf("r%d", i))
		time.Sleep(time.Millisecond)
	}
	if got := states(pl)[0]; got != breakerClosed {
		t.Fatalf("healed replica state = %v, want closed", got)
	}
}

// TestClientErrorsDoNotTripBreaker: a 4xx is the request's fault; the
// replica must stay in rotation.
func TestClientErrorsDoNotTripBreaker(t *testing.T) {
	bad := &fakePred{name: "bad", id: "x", err: &llm.APIError{StatusCode: 400, Message: "bad prompt"}}
	pl := mustPool(t, Config{
		Breaker: BreakerConfig{Threshold: 1, Cooldown: time.Hour},
	}, bad)
	for i := 0; i < 10; i++ {
		_, _ = pl.QueryContext(context.Background(), fmt.Sprintf("q%d", i))
	}
	if got := states(pl)[0]; got != breakerClosed {
		t.Errorf("breaker state after 4xx storm = %v, want closed", got)
	}
}

// TestPicksSpreadAcrossReplicas: with equal health, P2C routing must
// actually use more than one replica.
func TestPicksSpreadAcrossReplicas(t *testing.T) {
	a := &fakePred{name: "a", id: "x"}
	b := &fakePred{name: "b", id: "x"}
	c := &fakePred{name: "c", id: "x"}
	pl := mustPool(t, Config{}, a, b, c)
	for i := 0; i < 300; i++ {
		if _, err := pl.QueryContext(context.Background(), fmt.Sprintf("q%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range []*fakePred{a, b, c} {
		if f.calls.Load() == 0 {
			t.Errorf("replica %s never picked across 300 queries", f.name)
		}
	}
}
