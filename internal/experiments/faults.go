package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/pool"
	"repro/internal/tablefmt"
)

// RunFaultSweep executes one plan under increasing injected-failure
// rates with the full fault-tolerance stack engaged: per-query
// timeouts abandon hung calls, and the surrogate classifier answers
// every query whose LLM path failed permanently. Faults are a pure
// function of hash(seed, prompt), so each row — and the whole sweep —
// reproduces bit-for-bit; the sweep re-runs its worst row at several
// worker counts and fails if any prediction or token total changes.
func RunFaultSweep(cfg Config, rates []float64, workers []int) (string, error) {
	d, err := load("cora", cfg)
	if err != nil {
		return "", err
	}
	m := khop1()
	timeout := cfg.QueryTimeout
	if timeout <= 0 {
		timeout = 50 * time.Millisecond
	}
	// The fallback answer machine: the paper's surrogate f_θ1, trained
	// once on the labeled set with zero LLM queries.
	sur, err := core.FitSurrogate(d.g, d.split.Labeled, core.SurrogateConfig{Seed: cfg.Seed})
	if err != nil {
		return "", err
	}

	execute := func(rate float64, workerCount int) (*core.Results, *llm.FaultInjector, error) {
		inj, err := llm.NewFaultInjector(d.sim(gpt35(), cfg), llm.FaultConfig{
			Seed: cfg.Seed + 31,
			// Split the failure budget: most prompts error fast, a few
			// hang until the per-query timeout fires.
			ErrorRate: 0.8 * rate,
			HangRate:  0.2 * rate,
		})
		if err != nil {
			return nil, nil, err
		}
		ecfg := cfg.exec()
		ecfg.Workers = workerCount
		ecfg.QueryTimeout = timeout
		ecfg.Fallback = sur
		res, err := core.ExecuteWith(d.ctx(cfg), m, inj, core.Plan{Queries: d.split.Query}, ecfg)
		if err != nil {
			return nil, nil, err
		}
		return res, inj, nil
	}

	baseWorkers := cfg.Workers
	if baseWorkers < 1 {
		baseWorkers = 1
	}
	tbl := tablefmt.New(
		fmt.Sprintf("fault tolerance on Cora, %d queries, %v per-query timeout",
			len(d.split.Query), timeout),
		"fail rate", "errors", "hangs", "LLM answered", "surrogate", "coverage (%)", "plan acc (%)")
	var worstSurrogate int
	for _, rate := range rates {
		res, inj, err := execute(rate, baseWorkers)
		if err != nil {
			return "", fmt.Errorf("rate %.2f: %w", rate, err)
		}
		acc, cov := core.PlanAccuracy(d.g, d.split.Query, res.Pred)
		st := inj.Stats()
		tbl.AddRow(fmt.Sprintf("%.0f%%", 100*rate),
			fmt.Sprint(st.Errors), fmt.Sprint(st.Hangs),
			fmt.Sprint(res.LLMAnswered()), fmt.Sprint(res.SurrogateAnswered()),
			tablefmt.Pct(cov), tablefmt.Pct(acc))
		worstSurrogate = res.SurrogateAnswered()
	}
	out := tbl.String()

	// Determinism under chaos: the worst row must reproduce exactly at
	// every worker count, because fault fates are keyed on the prompt,
	// not on dispatch order.
	worst := rates[len(rates)-1]
	base, _, err := execute(worst, workers[0])
	if err != nil {
		return "", err
	}
	for _, w := range workers[1:] {
		r, _, err := execute(worst, w)
		if err != nil {
			return "", fmt.Errorf("workers=%d: %w", w, err)
		}
		if err := samePredictions(base, r); err != nil {
			return "", fmt.Errorf("chaos run diverged between %d and %d workers: %w", workers[0], w, err)
		}
	}

	// A dead backend: every prompt errors, a small breaker threshold
	// trips after the first failures, and the rest of the batch is
	// answered by the surrogate at fail-fast speed.
	deadInj, err := llm.NewFaultInjector(d.sim(gpt35(), cfg), llm.FaultConfig{
		Seed: cfg.Seed + 31, ErrorRate: 1,
	})
	if err != nil {
		return "", err
	}
	deadCfg := cfg.exec()
	deadCfg.QueryTimeout = timeout
	deadCfg.Fallback = sur
	deadCfg.Breaker = pool.BreakerConfig{Threshold: 5, Cooldown: time.Hour}
	deadRes, err := core.ExecuteWith(d.ctx(cfg), m, deadInj, core.Plan{Queries: d.split.Query}, deadCfg)
	if err != nil {
		return "", fmt.Errorf("dead backend: %w", err)
	}
	deadAcc, deadCov := core.PlanAccuracy(d.g, d.split.Query, deadRes.Pred)
	out += fmt.Sprintf("\ndead backend (100%% errors, breaker threshold 5): surrogate answered %d/%d, coverage %s, plan acc %s\n",
		deadRes.SurrogateAnswered(), len(d.split.Query), tablefmt.Pct(deadCov), tablefmt.Pct(deadAcc))
	out += fmt.Sprintf("chaos: surrogate fallback answered %d queries at the worst sweep rate; outputs identical across workers %v\n",
		worstSurrogate, workers)
	return out, nil
}

// runFaults is the registered experiment entry point: failure rates
// 0%, 10%, 25% and 50%, with the worst rate replayed at 1, 4 and 8
// workers.
func runFaults(cfg Config) (string, error) {
	out, err := RunFaultSweep(cfg, []float64{0, 0.10, 0.25, 0.50}, []int{1, 4, 8})
	if err != nil {
		return "", errf("faults", err)
	}
	return out, nil
}
