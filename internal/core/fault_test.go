package core

import (
	"errors"
	"hash/fnv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/llm"
	"repro/internal/predictors"
	"repro/internal/tag"
)

// faultedSim wraps a fresh simulator in a fresh fault injector so each
// run replays the identical (prompt-keyed) fault schedule.
func (f *fixture) faultedSim(t *testing.T, fcfg llm.FaultConfig) *llm.FaultInjector {
	t.Helper()
	sim := llm.NewSim(llm.GPT35(), f.g.Vocab, f.g.Classes, 13)
	inj, err := llm.NewFaultInjector(sim, fcfg)
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

func fitTestSurrogate(t *testing.T, f *fixture) *Surrogate {
	t.Helper()
	cfg := DefaultSurrogateConfig()
	cfg.Folds = 2
	cfg.MaxFeatures = 256
	cfg.Seed = 5
	cfg.MLP.Epochs = 40
	sur, err := FitSurrogate(f.g, f.split.Labeled, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sur
}

func TestExecuteWithFallbackAccounting(t *testing.T) {
	f := newFixture(t, 400, 80, 3)
	m := predictors.KHopRandom{K: 1}
	plan := Plan{Queries: f.split.Query}
	sur := fitTestSurrogate(t, f)
	fcfg := llm.FaultConfig{Seed: 21, ErrorRate: 0.3}

	// Without a fallback, injected permanent errors surface as
	// QueryErrors and the failed queries are missing from Pred.
	bare, err := ExecuteWith(f.freshCtx(), m, f.faultedSim(t, fcfg), plan, ExecConfig{})
	var qerrs *QueryErrors
	if !errors.As(err, &qerrs) {
		t.Fatalf("expected *QueryErrors without fallback, got %v", err)
	}
	failed := len(qerrs.Errs)
	if failed == 0 {
		t.Fatal("fault injector produced no failures; raise ErrorRate")
	}
	if len(bare.Pred)+failed != len(plan.Queries) {
		t.Fatalf("answered %d + failed %d != planned %d", len(bare.Pred), failed, len(plan.Queries))
	}
	if _, cov := PlanAccuracy(f.g, plan.Queries, bare.Pred); cov >= 1 {
		t.Fatalf("coverage %v after failures, want < 1", cov)
	}

	// With a fallback, the same failures degrade to surrogate answers:
	// full coverage, no error, and the split is accounted explicitly.
	res, err := ExecuteWith(f.freshCtx(), m, f.faultedSim(t, fcfg), plan, ExecConfig{Fallback: sur})
	if err != nil {
		t.Fatalf("fallback run failed: %v", err)
	}
	if res.SurrogateAnswered() != failed {
		t.Fatalf("surrogate answered %d, want the %d failed queries", res.SurrogateAnswered(), failed)
	}
	if res.LLMAnswered()+res.SurrogateAnswered() != len(plan.Queries) {
		t.Fatalf("LLM %d + surrogate %d != planned %d",
			res.LLMAnswered(), res.SurrogateAnswered(), len(plan.Queries))
	}
	if _, cov := PlanAccuracy(f.g, plan.Queries, res.Pred); cov != 1 {
		t.Fatalf("coverage %v with fallback, want 1", cov)
	}
	// Fallback answers are real classes, and the LLM-answered queries
	// are untouched by the degradation.
	valid := map[string]bool{}
	for _, c := range f.g.Classes {
		valid[c] = true
	}
	for v := range res.Fallback {
		if !valid[res.Pred[v]] {
			t.Fatalf("fallback answer %q for node %d is not a class", res.Pred[v], v)
		}
		if _, ok := bare.Pred[v]; ok {
			t.Fatalf("node %d fell back although the LLM answered it in the bare run", v)
		}
	}
	for v, c := range bare.Pred {
		if res.Pred[v] != c {
			t.Fatalf("node %d: LLM answer changed %q -> %q under fallback", v, c, res.Pred[v])
		}
	}
	// Surrogate answers cost no LLM tokens: the meter only counts the
	// queries the LLM actually served.
	if res.Meter.Queries() != res.LLMAnswered() {
		t.Fatalf("meter counted %d queries, want %d LLM-answered", res.Meter.Queries(), res.LLMAnswered())
	}
}

func TestExecuteWithFaultsDeterministicAcrossWorkers(t *testing.T) {
	// The acceptance scenario: errors, hangs cut short by the per-query
	// timeout, and surrogate fallback — identical outputs at any worker
	// count because fault fates are keyed on the prompt, not on
	// scheduling.
	f := newFixture(t, 400, 100, 7)
	m := predictors.KHopRandom{K: 1}
	plan := Plan{Queries: f.split.Query}
	sur := fitTestSurrogate(t, f)
	fcfg := llm.FaultConfig{Seed: 9, ErrorRate: 0.2, HangRate: 0.1}

	run := func(workers int) *Results {
		res, err := ExecuteWith(f.freshCtx(), m, f.faultedSim(t, fcfg), plan, ExecConfig{
			Workers:      workers,
			QueryTimeout: 30 * time.Millisecond,
			Fallback:     sur,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res
	}
	serial := run(1)
	if serial.SurrogateAnswered() == 0 {
		t.Fatal("no query degraded to the surrogate; the scenario is vacuous")
	}
	for _, w := range []int{2, 8} {
		res := run(w)
		assertSameResults(t, "faulted execute", serial, res)
		if len(res.Fallback) != len(serial.Fallback) {
			t.Fatalf("workers=%d: %d fallbacks vs %d serial", w, len(res.Fallback), len(serial.Fallback))
		}
		for v := range serial.Fallback {
			if !res.Fallback[v] {
				t.Fatalf("workers=%d: node %d fell back serially but not concurrently", w, v)
			}
		}
	}
}

func TestExecuteWithHungPredictorDoesNotStall(t *testing.T) {
	// One hanging prompt without a fallback: the batch still finishes
	// (watchdog abandons the call) and only that query fails.
	f := newFixture(t, 300, 40, 5)
	m := predictors.KHopRandom{K: 1}
	plan := Plan{Queries: f.split.Query}
	inj := f.faultedSim(t, llm.FaultConfig{Seed: 2, HangRate: 0.05})

	done := make(chan struct{})
	var res *Results
	var err error
	go func() {
		defer close(done)
		res, err = ExecuteWith(f.freshCtx(), m, inj, plan, ExecConfig{
			Workers: 4, QueryTimeout: 25 * time.Millisecond,
		})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("hung predictor stalled ExecuteWith")
	}
	hangs := int(inj.Stats().Hangs)
	if hangs == 0 {
		t.Skip("no hang drawn at this seed/rate; adjust the config")
	}
	var qerrs *QueryErrors
	if !errors.As(err, &qerrs) {
		t.Fatalf("expected *QueryErrors, got %v", err)
	}
	if len(qerrs.Errs) != hangs {
		t.Fatalf("%d queries failed, want exactly the %d hung ones", len(qerrs.Errs), hangs)
	}
	if len(res.Pred)+hangs != len(plan.Queries) {
		t.Fatalf("answered %d + hung %d != planned %d", len(res.Pred), hangs, len(plan.Queries))
	}
}

// legacyHang is a context-free predictor (no QueryContext) that blocks
// on every prompt whose FNV hash falls in one bucket of ten, until
// release is closed; other prompts go to inner.
type legacyHang struct {
	inner   llm.Predictor
	release chan struct{}
	hung    atomic.Int64
}

func (h *legacyHang) Name() string { return "legacy-hang" }

func (h *legacyHang) Query(prompt string) (llm.Response, error) {
	f := fnv.New32a()
	f.Write([]byte(prompt))
	if f.Sum32()%10 == 0 {
		h.hung.Add(1)
		<-h.release
		return llm.Response{}, errors.New("hang released")
	}
	return h.inner.Query(prompt)
}

func TestExecuteWithLegacyHungPredictorWatchdog(t *testing.T) {
	// A legacy predictor cannot be canceled, so QueryTimeout reaches it
	// only through llm.WithContext's watchdog: the plan must finish, and
	// exactly the hung queries fail.
	f := newFixture(t, 300, 40, 5)
	m := predictors.KHopRandom{K: 1}
	plan := Plan{Queries: f.split.Query}
	h := &legacyHang{inner: f.sim, release: make(chan struct{})}
	defer close(h.release)

	done := make(chan struct{})
	var res *Results
	var err error
	go func() {
		defer close(done)
		res, err = ExecuteWith(f.freshCtx(), m, h, plan, ExecConfig{
			Workers: 4, QueryTimeout: 25 * time.Millisecond,
		})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("hung legacy predictor stalled ExecuteWith")
	}
	hangs := int(h.hung.Load())
	if hangs == 0 {
		t.Fatal("no prompt hung; the scenario is vacuous")
	}
	var qerrs *QueryErrors
	if !errors.As(err, &qerrs) {
		t.Fatalf("expected *QueryErrors, got %v", err)
	}
	if len(qerrs.Errs) != hangs {
		t.Fatalf("%d queries failed, want exactly the %d hung ones", len(qerrs.Errs), hangs)
	}
	for v, qerr := range qerrs.Errs {
		if !errors.Is(qerr, llm.ErrQueryTimeout) {
			t.Fatalf("node %d failed with %v, want ErrQueryTimeout", v, qerr)
		}
	}
	if len(res.Pred)+hangs != len(plan.Queries) {
		t.Fatalf("answered %d + hung %d != planned %d", len(res.Pred), hangs, len(plan.Queries))
	}
}

func TestBoostWithFallbackPseudoLabels(t *testing.T) {
	f := newFixture(t, 400, 60, 17)
	m := predictors.KHopRandom{K: 1}
	plan := Plan{Queries: f.split.Query}
	sur := fitTestSurrogate(t, f)
	fcfg := llm.FaultConfig{Seed: 41, ErrorRate: 0.3}

	ctx := f.freshCtx()
	res, trace, err := BoostWith(ctx, m, f.faultedSim(t, fcfg), plan,
		DefaultBoostConfig(), ExecConfig{Fallback: sur})
	if err != nil {
		t.Fatalf("boost with fallback: %v", err)
	}
	if len(trace) == 0 {
		t.Fatal("no boosting rounds traced")
	}
	if res.SurrogateAnswered() == 0 {
		t.Fatal("no query degraded to the surrogate; raise ErrorRate")
	}
	if len(res.Pred) != len(plan.Queries) {
		t.Fatalf("answered %d of %d planned", len(res.Pred), len(plan.Queries))
	}
	// Surrogate answers participate in label propagation exactly like
	// LLM answers: every fallback-answered query is now a known
	// (pseudo-)label in the context.
	for v := range res.Fallback {
		if ctx.Known[v] != res.Pred[v] {
			t.Fatalf("fallback answer for node %d not propagated as pseudo-label", v)
		}
	}
	// Determinism holds for boosting too (serial vs serial replay).
	again, _, err := BoostWith(f.freshCtx(), m, f.faultedSim(t, fcfg), plan,
		DefaultBoostConfig(), ExecConfig{Fallback: sur})
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, "boost replay", res, again)
}

func TestFitInadequacyToleratesCalibrationFailures(t *testing.T) {
	// A permanently-failing calibration prompt must not void the whole
	// fit: failed queries are dropped from the bias tallies and the
	// channel regression. Only an all-failed calibration is fatal.
	f := newFixture(t, 400, 40, 23)
	cfg := fastInadequacy(29)
	cfg.Exec = ExecConfig{QueryTimeout: 30 * time.Millisecond}

	iq, err := FitInadequacy(f.g, f.split.Labeled, f.faultedSim(t, llm.FaultConfig{
		Seed: 51, ErrorRate: 0.2, HangRate: 0.1,
	}), "paper", cfg)
	if err != nil {
		t.Fatalf("fit under 30%% calibration faults: %v", err)
	}
	if iq.CalibrationQueries == 0 {
		t.Fatal("no calibration queries attempted")
	}
	// The degraded measure still scores nodes.
	if s := iq.ScoreNode(f.g, f.split.Query[0]); s < 0 || s > 1 {
		t.Fatalf("score %v out of range", s)
	}

	// All calibration queries failing is fatal, with a diagnosable error.
	_, err = FitInadequacy(f.g, f.split.Labeled, f.faultedSim(t, llm.FaultConfig{
		Seed: 51, ErrorRate: 1,
	}), "paper", cfg)
	if err == nil {
		t.Fatal("all-failed calibration fitted anyway")
	}
}

func TestPlanAccuracyCoverage(t *testing.T) {
	f := newFixture(t, 300, 20, 1)
	queries := f.split.Query
	pred := map[tag.NodeID]string{}
	// Answer half the plan, all correctly.
	for _, v := range queries[:10] {
		pred[v] = f.g.Classes[f.g.Nodes[v].Label]
	}
	acc, cov := PlanAccuracy(f.g, queries, pred)
	if acc != 0.5 || cov != 0.5 {
		t.Fatalf("acc=%v cov=%v, want 0.5 0.5", acc, cov)
	}
	// Accuracy-over-survivors reports 1.0 here — the inflation the
	// plan-level metric exists to correct.
	if got := Accuracy(f.g, pred); got != 1 {
		t.Fatalf("survivor accuracy = %v, want 1", got)
	}
	// One wrong answer among the ten.
	pred[queries[0]] = "definitely-wrong"
	acc, cov = PlanAccuracy(f.g, queries, pred)
	if acc != 0.45 || cov != 0.5 {
		t.Fatalf("acc=%v cov=%v, want 0.45 0.5", acc, cov)
	}
	if acc, cov := PlanAccuracy(f.g, nil, pred); acc != 0 || cov != 0 {
		t.Fatalf("empty plan gave acc=%v cov=%v", acc, cov)
	}
}
