package pool

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/llm"
	"repro/internal/obs"
	"repro/internal/promptcache"
	"repro/internal/xrand"
)

// affinityCounters sums the pool's pick/affinity counter families
// across replica labels.
func affinityCounters(reg *obs.Registry) (picks, hits, misses float64) {
	for _, s := range reg.Snapshot() {
		switch s.Name {
		case "mqo_pool_picks_total":
			picks += s.Value
		case "mqo_pool_affinity_hits_total":
			hits += s.Value
		case "mqo_pool_affinity_misses_total":
			misses += s.Value
		}
	}
	return picks, hits, misses
}

// TestAffinityDeterministicPlacement: under affinity routing each
// prompt is owned by exactly one replica — re-asking routes to the
// same replica every time — while distinct prompts spread across the
// set. Serial and healthy, so every pick is an affinity hit.
func TestAffinityDeterministicPlacement(t *testing.T) {
	reg := obs.NewRegistry()
	a := &fakePred{name: "a", id: "x"}
	b := &fakePred{name: "b", id: "x"}
	c := &fakePred{name: "c", id: "x"}
	pl := mustPool(t, Config{Affinity: true, Obs: reg}, a, b, c)

	const n = 60
	owner := make(map[string]string, n)
	for i := 0; i < n; i++ {
		pr := fmt.Sprintf("prompt-%d", i)
		resp, err := pl.Query(pr)
		if err != nil {
			t.Fatal(err)
		}
		owner[pr] = strings.SplitN(resp.Text, ":", 2)[0]
	}
	for i := 0; i < n; i++ {
		pr := fmt.Sprintf("prompt-%d", i)
		resp, err := pl.Query(pr)
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.SplitN(resp.Text, ":", 2)[0]; got != owner[pr] {
			t.Errorf("prompt %q moved from replica %s to %s between asks", pr, owner[pr], got)
		}
	}
	used := map[string]bool{}
	for _, o := range owner {
		used[o] = true
	}
	if len(used) < 2 {
		t.Errorf("all %d prompts placed on one replica; rendezvous is not spreading", n)
	}
	picks, hits, misses := affinityCounters(reg)
	if picks != 2*n || hits != 2*n || misses != 0 {
		t.Errorf("picks=%v hits=%v misses=%v, want %d/%d/0 (healthy serial run must be all hits)",
			picks, hits, misses, 2*n, 2*n)
	}
}

// TestAffinityStableUnderReplicaGrowth pins the rendezvous property
// affinity routing exists for: growing the pool from 3 to 5 slots moves only
// ~2/5 of the key space — never the wholesale reshuffle a modulo
// placement would cause.
func TestAffinityStableUnderReplicaGrowth(t *testing.T) {
	shared := &fakePred{name: "m", id: "m/seed=1"}
	p3 := mustPool(t, Config{Affinity: true}, shared, shared, shared)
	p5 := mustPool(t, Config{Affinity: true}, shared, shared, shared, shared, shared)
	if p3.ns != p5.ns {
		t.Fatalf("namespace changed with replica count: %q vs %q", p3.ns, p5.ns)
	}

	const n = 200
	moved := 0
	for i := 0; i < n; i++ {
		key := promptcache.KeyOf(p3.ns, fmt.Sprintf("prompt-%d", i))
		o3 := p3.rendezvousOrder(key, -1)[0]
		o5 := p5.rendezvousOrder(key, -1)[0]
		// The first three slots keep their identities (#0..#2), so an
		// unmoved key has the same owner index in both pools.
		if o3 != o5 {
			moved++
			if o5 < 3 {
				t.Errorf("prompt-%d moved between surviving replicas (%d -> %d); only moves to new slots are allowed", i, o3, o5)
			}
		}
	}
	// Expectation is 2/5 of keys moving to the two new slots; allow
	// generous sampling noise but reject both a reshuffle and a
	// placement that ignores the new slots.
	if moved > n*3/5 {
		t.Errorf("%d/%d keys moved on 3->5 growth; rendezvous should move ~2/5", moved, n)
	}
	if moved < n/10 {
		t.Errorf("only %d/%d keys moved on 3->5 growth; new replicas own no key space", moved, n)
	}
}

// TestAffinityFallsBackWhenAffineEjected is the acceptance criterion's
// degraded half: with the shard owner dead and ejected, its prompts
// degrade to P2C over the healthy replicas — queries keep succeeding,
// no llm.ErrCircuitOpen surfaces, and the misses counter shows which
// shard is paying cold tokens.
func TestAffinityFallsBackWhenAffineEjected(t *testing.T) {
	reg := obs.NewRegistry()
	dead := &fakePred{name: "dead", id: "x", err: errors.New("boom")}
	ok1 := &fakePred{name: "ok1", id: "x", delay: time.Millisecond}
	ok2 := &fakePred{name: "ok2", id: "x", delay: time.Millisecond}
	pl := mustPool(t, Config{
		Affinity: true,
		Breaker:  BreakerConfig{Threshold: 2, Cooldown: time.Hour},
		Obs:      reg,
	}, dead, ok1, ok2)

	// Drive the dead owner's shard until its breaker opens; errors are
	// expected while it is in rotation (retries are the executor's job).
	for i := 0; i < 200 && states(pl)[0] != breakerOpen; i++ {
		_, _ = pl.QueryContext(context.Background(), fmt.Sprintf("warm-%d", i))
	}
	if got := states(pl)[0]; got != breakerOpen {
		t.Fatalf("dead owner never ejected: state %v", got)
	}

	// Ejected owner: every query — including its shard — must succeed.
	for i := 0; i < 100; i++ {
		resp, err := pl.QueryContext(context.Background(), fmt.Sprintf("after-%d", i))
		if err != nil {
			t.Fatalf("query %d after ejection: %v", i, err)
		}
		if strings.HasPrefix(resp.Text, "dead:") {
			t.Fatalf("query %d answered by the ejected replica", i)
		}
	}
	_, _, misses := affinityCounters(reg)
	if misses == 0 {
		t.Error("no affinity misses recorded while the shard owner was ejected")
	}
	if got := reg.CounterValue("mqo_pool_affinity_misses_total", "replica", "0"); got == 0 {
		t.Error("misses not attributed to the ejected owner's label")
	}
}

// TestAffinityOverloadGuard: the owner is abandoned only when it is
// worse than the best alternative on BOTH score and queue depth. A
// score gap alone (e.g. against a never-observed replica scoring the
// near-zero sentinel) must not exile warm traffic.
func TestAffinityOverloadGuard(t *testing.T) {
	a := &fakePred{name: "a", id: "x"}
	b := &fakePred{name: "b", id: "x"}
	pl := mustPool(t, Config{Affinity: true}, a, b)

	rt := pl.route("guard-probe", xrand.New(1))
	affine := pl.rendezvousOrder(rt.key, -1)[0]
	other := 1 - affine

	// Never-observed other replica: its sentinel score is ~1e-9, so the
	// score ratio is astronomical — but the owner's queue is idle, so
	// the guard must hold.
	pl.replicas[affine].observe(0.5)
	if order, owner := pl.affinityOrder(rt); order[0] != affine || owner != affine {
		t.Fatalf("idle owner abandoned on score gap alone: order %v, affine %d", order, owner)
	}

	// Deep queue AND bad score: now the guard must trip, and the pick
	// becomes a miss (affine still names the owner).
	pl.replicas[affine].inflight.Add(10)
	pl.replicas[other].observe(0.01)
	order, owner := pl.affinityOrder(rt)
	if order[0] != other {
		t.Fatalf("drowning owner not abandoned: order %v", order)
	}
	if owner != affine {
		t.Fatalf("affine = %d after overload fallback, want owner %d", owner, affine)
	}
	if order[len(order)-1] != affine {
		t.Fatalf("owner not kept last in degraded order %v", order)
	}
	pl.replicas[affine].inflight.Add(-10)
	if order, _ := pl.affinityOrder(rt); order[0] != affine {
		t.Fatalf("owner with drained queue still abandoned: order %v", order)
	}
}

// TestAffinityHedgeSecondHashChoice: a hedge excludes the primary, so
// under affinity routing it lands on the key's *second* rendezvous
// choice — the deterministic spill target whose cache may be warm —
// not on a random cold replica.
func TestAffinityHedgeSecondHashChoice(t *testing.T) {
	preds := []*fakePred{
		{name: "r0", id: "x"},
		{name: "r1", id: "x"},
		{name: "r2", id: "x"},
	}
	reg := obs.NewRegistry()
	pl := mustPool(t, Config{Affinity: true, Hedge: true, HedgeAfter: 2 * time.Millisecond, Obs: reg},
		preds[0], preds[1], preds[2])

	const prompt = "hedge-me"
	ord := pl.rendezvousOrder(pl.route(prompt, xrand.New(1)).key, -1)
	preds[ord[0]].delay = 30 * time.Second // owner hangs; hedge must rescue

	resp, err := pl.QueryContext(context.Background(), prompt)
	if err != nil {
		t.Fatal(err)
	}
	wantPrefix := preds[ord[1]].name + ":"
	if !strings.HasPrefix(resp.Text, wantPrefix) {
		t.Errorf("hedge answered from %q, want second hash choice %q (order %v)", resp.Text, wantPrefix, ord)
	}
	if got := reg.CounterValue("mqo_pool_hedge_wins_total"); got != 1 {
		t.Errorf("hedge wins = %v, want 1", got)
	}
	// Both picks are affinity hits: the primary landed on the key's
	// owner, the hedge on the owner of the primary-excluded ranking.
	_, hits, misses := affinityCounters(reg)
	if hits != 2 || misses != 0 {
		t.Errorf("hits=%v misses=%v, want 2/0", hits, misses)
	}
}

// TestP2CFallbackSpreadsByScore is the regression test for the
// index-order fallback bug: with most of the pool ejected, spill load
// must spread across the healthy replicas by score instead of piling
// onto the lowest-index one.
func TestP2CFallbackSpreadsByScore(t *testing.T) {
	boom := errors.New("boom")
	preds := make([]*fakePred, 8)
	replicas := make([]llm.Predictor, 8)
	for i := range preds {
		preds[i] = &fakePred{name: fmt.Sprintf("r%d", i), id: "x"}
		if i < 6 {
			preds[i].err = boom // dead replicas fail instantly (score stays tiny)
		} else {
			preds[i].delay = 2 * time.Millisecond
		}
		replicas[i] = preds[i]
	}
	pl := mustPool(t, Config{
		Breaker: BreakerConfig{Threshold: 1, Cooldown: time.Hour},
	}, replicas...)

	// Warm until the dead replicas are ejected and both healthy ones
	// carry a latency estimate: an unobserved replica's near-zero
	// sentinel score rightly attracts a whole concurrent burst, which is
	// cold start, not the fallback this test is about.
	warm := func() bool {
		for i, s := range states(pl) {
			if i < 6 && s != breakerOpen {
				return false
			}
		}
		return preds[6].calls.Load() > 0 && preds[7].calls.Load() > 0
	}
	for i := 0; i < 500 && !warm(); i++ {
		_, _ = pl.QueryContext(context.Background(), fmt.Sprintf("warm-%d", i))
	}
	if !warm() {
		t.Fatal("dead replicas never all ejected, or a healthy replica never served")
	}

	base6, base7 := preds[6].calls.Load(), preds[7].calls.Load()
	const n = 300
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := pl.QueryContext(context.Background(), fmt.Sprintf("spill-%d", i)); err != nil {
				t.Errorf("spill query %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	got6, got7 := preds[6].calls.Load()-base6, preds[7].calls.Load()-base7
	total := got6 + got7
	if total < n {
		t.Fatalf("healthy replicas served %d calls, want >= %d", total, n)
	}
	// Index-order fallback sent ~98% of spill to replica 6; score-aware
	// fallback balances via the inflight term. Require each healthy
	// replica to carry a real share.
	for name, got := range map[string]int64{"r6": got6, "r7": got7} {
		if got*5 < total {
			t.Errorf("replica %s served %d of %d spill calls (<20%%); fallback is concentrating load", name, got, total)
		}
	}
}

// TestCanceledAttemptDoesNotPoisonEWMA: a canceled attempt measures
// the cancellation moment, not the backend, and must not teach the
// routing EWMA.
func TestCanceledAttemptDoesNotPoisonEWMA(t *testing.T) {
	slow := &fakePred{name: "slow", id: "x", delay: time.Hour}
	pl := mustPool(t, Config{}, slow)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	if _, err := pl.do(ctx, pl.replicas[0], "p", false); err == nil {
		t.Fatal("canceled attempt returned no error")
	}
	if got := pl.replicas[0].ewma.Load(); got != 0 {
		t.Errorf("canceled attempt taught the EWMA (bits %#x); a 5ms cancel would masquerade as backend speed", got)
	}

	// Control: a completed attempt does teach it.
	fast := &fakePred{name: "fast", id: "x", delay: time.Millisecond}
	pl2 := mustPool(t, Config{}, fast)
	if _, err := pl2.do(context.Background(), pl2.replicas[0], "p", false); err != nil {
		t.Fatal(err)
	}
	if pl2.replicas[0].ewma.Load() == 0 {
		t.Error("completed attempt did not teach the EWMA")
	}
}

// TestHedgeLossChargedWhenErrorPrecedesWin: an attempt that errors
// while the race is still open must be ledgered as StageHedgeLoss once
// the other attempt wins — its duplicate work existed whether or not
// it outlived the winner.
func TestHedgeLossChargedWhenErrorPrecedesWin(t *testing.T) {
	reg := obs.NewRegistry()
	bad := &fakePred{name: "bad", id: "x", delay: 3 * time.Millisecond, err: errors.New("boom")}
	good := &fakePred{name: "good", id: "x", delay: 40 * time.Millisecond}
	pl := mustPool(t, Config{Hedge: true, HedgeAfter: time.Millisecond, Obs: reg}, bad, good)

	led := obs.NewLedger(reg, "trace-hedge-loss", "q")
	ctx := obs.ContextWithLedger(context.Background(), led)
	// Whichever replica is picked first, the failing attempt resolves
	// (~4ms) long before the good one answers (~40ms), while the race
	// is still open. The win must then post the parked loss.
	if _, err := pl.QueryContext(ctx, "p"); err != nil {
		t.Fatal(err)
	}
	snap := led.Close(100 * time.Millisecond)
	var lossWall time.Duration
	found := false
	for _, e := range snap.Entries {
		if e.Stage == obs.StageHedgeLoss {
			found = true
			if e.Billed {
				t.Error("hedge loss charged as billed; duplicate work is never billed")
			}
			lossWall += e.Wall
		}
	}
	if !found {
		t.Fatal("no StageHedgeLoss entry; the early-erroring attempt's work vanished from the books")
	}
	if lossWall <= 0 {
		t.Errorf("hedge loss wall = %v, want > 0", lossWall)
	}
}

// TestHedgeBothFailChargesNoLoss: when no attempt wins there is no
// winning path to duplicate — the failed attempts surface as the
// query's error, not as hedge waste.
func TestHedgeBothFailChargesNoLoss(t *testing.T) {
	reg := obs.NewRegistry()
	bad1 := &fakePred{name: "b1", id: "x", delay: 2 * time.Millisecond, err: errors.New("boom")}
	bad2 := &fakePred{name: "b2", id: "x", delay: 2 * time.Millisecond, err: errors.New("boom")}
	pl := mustPool(t, Config{Hedge: true, HedgeAfter: time.Millisecond, Obs: reg}, bad1, bad2)

	led := obs.NewLedger(reg, "trace-both-fail", "q")
	ctx := obs.ContextWithLedger(context.Background(), led)
	if _, err := pl.QueryContext(ctx, "p"); err == nil {
		t.Fatal("both-fail query succeeded")
	}
	snap := led.Close(100 * time.Millisecond)
	for _, e := range snap.Entries {
		if e.Stage == obs.StageHedgeLoss {
			t.Fatalf("hedge loss charged %v with no winner", e.Wall)
		}
	}
}

// TestAffinityWarmReRunPaysZero is the acceptance criterion's warm
// half at pool scope: three replicas each fronting their own disk
// cache, a cold pass to populate the shards, then a full re-run that
// pays zero inner predictor calls with every pick an affinity hit.
func TestAffinityWarmReRunPaysZero(t *testing.T) {
	inner := &fakePred{name: "m", id: "m/seed=1"}
	reg := obs.NewRegistry()
	replicas := make([]llm.Predictor, 3)
	for i := range replicas {
		pc, err := promptcache.Open(t.TempDir(), promptcache.Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer pc.Close()
		replicas[i] = promptcache.Wrap(inner, pc)
	}
	pl := mustPool(t, Config{Affinity: true, Obs: reg}, replicas...)

	const n = 90
	for i := 0; i < n; i++ {
		if _, err := pl.Query(fmt.Sprintf("prompt-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := inner.calls.Load(); got != n {
		t.Fatalf("cold pass made %d inner calls, want %d", got, n)
	}
	coldPicks, coldHits, _ := affinityCounters(reg)

	for i := 0; i < n; i++ {
		if _, err := pl.Query(fmt.Sprintf("prompt-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := inner.calls.Load() - n; got != 0 {
		t.Errorf("warm re-run paid %d inner predictor calls, want 0", got)
	}
	warmPicks, warmHits, warmMisses := affinityCounters(reg)
	if warmPicks-coldPicks != n || warmHits-coldHits != n || warmMisses != 0 {
		t.Errorf("warm pass picks=%v hits=%v misses=%v, want %d/%d/0",
			warmPicks-coldPicks, warmHits-coldHits, warmMisses, n, n)
	}
}
