package core

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/predictors"
	"repro/internal/tag"
)

// selectLog wraps a Method and logs every Select call, interleaved with
// the plan results streamed through ExecConfig.OnResult, so a serial
// boosting run's log splits into rounds: a run of selections, then that
// round's results.
type selectLog struct {
	predictors.Method
	mu     sync.Mutex
	events []selectEvent
}

type selectEvent struct {
	v      tag.NodeID
	result bool // a settled query rather than a Select call
}

func (l *selectLog) Select(ctx *predictors.Context, v tag.NodeID) []predictors.Selected {
	l.mu.Lock()
	l.events = append(l.events, selectEvent{v: v})
	l.mu.Unlock()
	return l.Method.Select(ctx, v)
}

func (l *selectLog) onResult(o QueryOutcome) {
	l.mu.Lock()
	l.events = append(l.events, selectEvent{v: o.Node, result: true})
	l.mu.Unlock()
}

// TestBoostSelectsOncePerRound pins the cost of candidate selection:
// ctx.Known does not change while thresholds relax, so each round
// selects every unpruned pending query exactly once, however many
// relaxation steps it takes to find candidates.
func TestBoostSelectsOncePerRound(t *testing.T) {
	f := newFixture(t, 400, 120, 61)
	plan := RandomPrunePlan(f.split.Query, 0.25, 61)
	log := &selectLog{Method: predictors.KHopRandom{K: 1}}
	cfg := DefaultBoostConfig()
	_, trace, err := BoostWith(f.freshCtx(), log, f.sim, plan, cfg, ExecConfig{Workers: 1, OnResult: log.onResult})
	if err != nil {
		t.Fatal(err)
	}
	relaxed := false
	for _, tr := range trace {
		relaxed = relaxed || tr.Gamma1 < cfg.Gamma1 || tr.Gamma2 > cfg.Gamma2
	}
	if !relaxed {
		t.Fatal("the fixture never relaxed γ; the test needs a relaxation step")
	}

	done := map[tag.NodeID]bool{}
	rounds, calls, want := 0, 0, 0
	for i := 0; i < len(log.events); {
		var selected []tag.NodeID
		for ; i < len(log.events) && !log.events[i].result; i++ {
			selected = append(selected, log.events[i].v)
		}
		var unpruned []tag.NodeID
		for _, v := range plan.Queries {
			if !done[v] && !plan.Prune[v] {
				unpruned = append(unpruned, v)
			}
		}
		rounds++
		calls += len(selected)
		want += len(unpruned)
		slices.Sort(selected)
		slices.Sort(unpruned)
		if !slices.Equal(selected, unpruned) {
			t.Fatalf("round %d made %d Select calls, want one for each of the %d unpruned pending queries",
				rounds, len(selected), len(unpruned))
		}
		for ; i < len(log.events) && log.events[i].result; i++ {
			done[log.events[i].v] = true
		}
	}
	if rounds != len(trace) {
		t.Fatalf("the log splits into %d rounds, the trace has %d", rounds, len(trace))
	}
	if calls != want {
		t.Fatalf("%d Select calls, want %d (Σ over rounds of unpruned pending queries)", calls, want)
	}
}

// TestPrunePlanIdenticalAcrossFitWorkers: Rank scores queries across the
// fit's Exec.Workers, so the pruning plan must not depend on them.
func TestPrunePlanIdenticalAcrossFitWorkers(t *testing.T) {
	f := newFixture(t, 400, 150, 73)
	plan := func(workers int) Plan {
		cfg := fastInadequacy(73)
		cfg.Exec = ExecConfig{Workers: workers}
		iq, err := FitInadequacy(f.g, f.split.Labeled, f.sim, "paper", cfg)
		if err != nil {
			t.Fatal(err)
		}
		return PrunePlan(iq, f.g, f.split.Query, 0.3)
	}
	want := plan(1)
	got := plan(8)
	if !slices.Equal(got.Queries, want.Queries) {
		t.Fatal("PrunePlan orders queries differently when the fit has 8 workers")
	}
	if len(got.Prune) != len(want.Prune) {
		t.Fatalf("pruned %d queries at 8 workers, %d at 1", len(got.Prune), len(want.Prune))
	}
	for v := range want.Prune {
		if !got.Prune[v] {
			t.Fatalf("node %d pruned at 1 worker but not at 8", v)
		}
	}
}
