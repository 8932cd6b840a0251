package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/llm"
	"repro/internal/obs"
	"repro/internal/predictors"
	"repro/internal/prompt"
	"repro/internal/tag"
	"repro/internal/token"
)

// failing wraps a predictor and permanently fails every prompt that
// contains the match string.
type failing struct {
	inner llm.Predictor
	match string
}

func (p failing) Name() string { return "failing" }

func (p failing) Query(prompt string) (llm.Response, error) {
	if strings.Contains(prompt, p.match) {
		return llm.Response{}, errors.New("injected permanent failure")
	}
	return p.inner.Query(prompt)
}

func assertSameResults(t *testing.T, label string, a, b *Results) {
	t.Helper()
	if len(a.Pred) != len(b.Pred) {
		t.Fatalf("%s: prediction counts differ: %d vs %d", label, len(a.Pred), len(b.Pred))
	}
	for v, cat := range a.Pred {
		if b.Pred[v] != cat {
			t.Fatalf("%s: node %d predicted %q vs %q", label, v, cat, b.Pred[v])
		}
	}
	if a.Meter.Queries() != b.Meter.Queries() ||
		a.Meter.InputTokens() != b.Meter.InputTokens() ||
		a.Meter.OutputTokens() != b.Meter.OutputTokens() {
		t.Fatalf("%s: meters differ: (%d,%d,%d) vs (%d,%d,%d)", label,
			a.Meter.Queries(), a.Meter.InputTokens(), a.Meter.OutputTokens(),
			b.Meter.Queries(), b.Meter.InputTokens(), b.Meter.OutputTokens())
	}
	if a.Equipped != b.Equipped {
		t.Fatalf("%s: equipped %d vs %d", label, a.Equipped, b.Equipped)
	}
}

func TestExecuteWithWorkersDeterministic(t *testing.T) {
	f := newFixture(t, 400, 120, 11)
	m := predictors.KHopRandom{K: 2}
	plan := RandomPrunePlan(f.split.Query, 0.3, 11)

	serialSim := llm.NewSim(llm.GPT35(), f.g.Vocab, f.g.Classes, 13)
	serial, err := ExecuteWith(f.freshCtx(), m, serialSim, plan, ExecConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{2, 8} {
		sim := llm.NewSim(llm.GPT35(), f.g.Vocab, f.g.Classes, 13)
		res, err := ExecuteWith(f.freshCtx(), m, sim, plan, ExecConfig{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		assertSameResults(t, "execute", serial, res)
	}
}

func TestBoostWithWorkersDeterministic(t *testing.T) {
	f := newFixture(t, 400, 80, 17)
	m := predictors.KHopRandom{K: 1}
	plan := Plan{Queries: f.split.Query}

	serialSim := llm.NewSim(llm.GPT35(), f.g.Vocab, f.g.Classes, 19)
	serial, serialTrace, err := BoostWith(f.freshCtx(), m, serialSim, plan, DefaultBoostConfig(), ExecConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	sim := llm.NewSim(llm.GPT35(), f.g.Vocab, f.g.Classes, 19)
	res, trace, err := BoostWith(f.freshCtx(), m, sim, plan, DefaultBoostConfig(), ExecConfig{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, "boost", serial, res)
	if len(trace) != len(serialTrace) {
		t.Fatalf("round counts differ: %d vs %d", len(trace), len(serialTrace))
	}
	for i := range trace {
		if trace[i] != serialTrace[i] {
			t.Fatalf("round %d trace differs: %+v vs %+v", i, trace[i], serialTrace[i])
		}
	}
	if res.PseudoLabelUses != serial.PseudoLabelUses {
		t.Fatalf("pseudo-label uses %d vs %d", res.PseudoLabelUses, serial.PseudoLabelUses)
	}
}

func TestExecuteWithAggregatesPerQueryErrors(t *testing.T) {
	f := newFixture(t, 400, 60, 23)
	m := predictors.KHopRandom{K: 1}
	bad := f.split.Query[7]
	p := failing{inner: f.sim, match: f.g.Nodes[bad].Title}

	res, err := ExecuteWith(f.freshCtx(), m, p, Plan{Queries: f.split.Query}, ExecConfig{Workers: 4})
	if err == nil {
		t.Fatal("expected aggregated error, got nil")
	}
	var qe *QueryErrors
	if !errors.As(err, &qe) {
		t.Fatalf("error is %T, want *QueryErrors: %v", err, err)
	}
	if _, ok := qe.Errs[bad]; !ok {
		t.Fatalf("node %d missing from aggregated errors: %v", bad, err)
	}
	if res == nil {
		t.Fatal("partial results must be returned alongside the error")
	}
	if len(res.Pred)+len(qe.Errs) != len(f.split.Query) {
		t.Fatalf("partial results incomplete: %d predictions + %d failures != %d queries",
			len(res.Pred), len(qe.Errs), len(f.split.Query))
	}
	if _, ok := res.Pred[bad]; ok {
		t.Fatalf("failed node %d must not appear in predictions", bad)
	}
}

func TestBoostWithDropsFailedQueries(t *testing.T) {
	f := newFixture(t, 400, 60, 29)
	m := predictors.KHopRandom{K: 1}
	bad := f.split.Query[3]
	p := failing{inner: f.sim, match: f.g.Nodes[bad].Title}

	ctx := f.freshCtx()
	res, _, err := BoostWith(ctx, m, p, Plan{Queries: f.split.Query}, DefaultBoostConfig(), ExecConfig{Workers: 4})
	if err == nil {
		t.Fatal("expected aggregated error, got nil")
	}
	var qe *QueryErrors
	if !errors.As(err, &qe) {
		t.Fatalf("error is %T, want *QueryErrors: %v", err, err)
	}
	if _, ok := qe.Errs[bad]; !ok {
		t.Fatalf("node %d missing from aggregated errors: %v", bad, err)
	}
	if res == nil {
		t.Fatal("partial results must be returned alongside the error")
	}
	if _, ok := res.Pred[bad]; ok {
		t.Fatal("failed query must not be predicted")
	}
	if _, ok := ctx.Known[bad]; ok {
		t.Fatal("failed query must not contribute a pseudo-label")
	}
	if len(res.Pred)+len(qe.Errs) != len(f.split.Query) {
		t.Fatalf("partial results incomplete: %d predictions + %d failures != %d queries",
			len(res.Pred), len(qe.Errs), len(f.split.Query))
	}
}

func TestEstimateQueryTokensSeededSample(t *testing.T) {
	f := newFixture(t, 500, 200, 31)
	m := predictors.KHopRandom{K: 1}

	// Order queries by ascending text length so a prefix sample is
	// maximally biased toward cheap prompts.
	queries := append([]tag.NodeID(nil), f.split.Query...)
	sort.Slice(queries, func(i, j int) bool {
		ti := token.Count(f.g.Text(queries[i]))
		tj := token.Count(f.g.Text(queries[j]))
		if ti != tj {
			return ti < tj
		}
		return queries[i] < queries[j]
	})
	sample := len(queries) / 4

	full, _ := EstimateQueryTokens(f.freshCtx(), m, queries, 0)
	prefix, _ := EstimateQueryTokens(f.freshCtx(), m, queries[:sample], 0)
	sampled, _ := EstimateQueryTokens(f.freshCtx(), m, queries, sample)
	again, _ := EstimateQueryTokens(f.freshCtx(), m, queries, sample)

	if sampled != again {
		t.Fatalf("sampled estimate not deterministic: %f vs %f", sampled, again)
	}
	if d1, d2 := abs(sampled-full), abs(prefix-full); d1 >= d2 {
		t.Fatalf("seeded sample (%.1f) no closer to the full estimate (%.1f) than the length-sorted prefix (%.1f)",
			sampled, full, prefix)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// recordingPredictor wraps a predictor and keeps every prompt it is
// asked, in arrival order.
type recordingPredictor struct {
	inner   llm.Predictor
	mu      sync.Mutex
	prompts []string
}

func (p *recordingPredictor) Name() string { return p.inner.Name() }

func (p *recordingPredictor) Query(promptText string) (llm.Response, error) {
	p.mu.Lock()
	p.prompts = append(p.prompts, promptText)
	p.mu.Unlock()
	return p.inner.Query(promptText)
}

// TestCompressedPlansIdenticalAcrossWorkers: compression runs across
// the executor's workers, so the worker count must change nothing a
// caller can observe — predictions, meters, rounds, pseudo-label uses,
// the exact prompt bytes the predictor received, and the compression
// savings metric — in plain and boosted execution alike.
func TestCompressedPlansIdenticalAcrossWorkers(t *testing.T) {
	f := newFixture(t, 400, 120, 41)
	m := predictors.KHopRandom{K: 1}
	plan := RandomPrunePlan(f.split.Query, 0.2, 41)
	type outcome struct {
		res     *Results
		trace   []RoundTrace
		prompts []string
		saved   float64
	}
	run := func(boost bool, workers int) outcome {
		ctx := f.freshCtx()
		ctx.IncludeAbstracts = true
		reg := obs.NewRegistry()
		ctx.Obs = reg
		p := &recordingPredictor{inner: llm.NewSim(llm.GPT35(), f.g.Vocab, f.g.Classes, 43)}
		cfg := ExecConfig{Workers: workers, Compress: prompt.Compressor{Level: 1}}
		var out outcome
		var err error
		mode := "plain"
		if boost {
			mode = "boost"
			out.res, out.trace, err = BoostWith(ctx, m, p, plan, DefaultBoostConfig(), cfg)
		} else {
			out.res, err = ExecuteWith(ctx, m, p, plan, cfg)
		}
		if err != nil {
			t.Fatal(err)
		}
		// Dispatch order varies with workers; the multiset of prompts
		// must not.
		sort.Strings(p.prompts)
		out.prompts = p.prompts
		out.saved = reg.CounterValue(metricCompressedTokens, "mode", mode)
		return out
	}
	for _, boost := range []bool{false, true} {
		want := run(boost, 1)
		if want.saved == 0 {
			t.Fatalf("boost=%v: compression saved no tokens; the test needs abstracts to drop", boost)
		}
		for _, workers := range []int{2, 8} {
			label := fmt.Sprintf("boost=%v workers=%d", boost, workers)
			got := run(boost, workers)
			assertSameResults(t, label, want.res, got.res)
			if got.res.Rounds != want.res.Rounds || got.res.PseudoLabelUses != want.res.PseudoLabelUses {
				t.Fatalf("%s: rounds %d, pseudo-label uses %d; want %d, %d", label,
					got.res.Rounds, got.res.PseudoLabelUses, want.res.Rounds, want.res.PseudoLabelUses)
			}
			if !slices.Equal(got.trace, want.trace) {
				t.Fatalf("%s: round traces differ:\n%+v\n%+v", label, got.trace, want.trace)
			}
			if !slices.Equal(got.prompts, want.prompts) {
				t.Fatalf("%s: the predictor received different prompts", label)
			}
			if got.saved != want.saved {
				t.Fatalf("%s: %s = %v, want %v", label, metricCompressedTokens, got.saved, want.saved)
			}
		}
	}
}
