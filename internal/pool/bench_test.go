package pool

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/llm"
	"repro/internal/promptcache"
)

// tailPred answers fast except for every slowEvery-th call on this
// replica, which stalls for slow. Slowness is a property of the
// replica-moment, not the prompt, so a hedge sent to a different
// replica escapes the stall — exactly the failure mode hedging buys
// back. The stall honors ctx, so a canceled loser releases promptly.
type tailPred struct {
	calls     atomic.Int64
	slowEvery int64
	fast      time.Duration
	slow      time.Duration
}

func (p *tailPred) Name() string     { return "tail" }
func (p *tailPred) Identity() string { return "tail/bench" }

func (p *tailPred) Query(prompt string) (llm.Response, error) {
	return p.QueryContext(context.Background(), prompt)
}

func (p *tailPred) QueryContext(ctx context.Context, prompt string) (llm.Response, error) {
	d := p.fast
	if n := p.calls.Add(1); p.slowEvery > 0 && n%p.slowEvery == 0 {
		d = p.slow
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return llm.Response{Text: "ok", InputTokens: len(prompt), OutputTokens: 1}, nil
	case <-ctx.Done():
		return llm.Response{}, ctx.Err()
	}
}

func percentile(lats []time.Duration, q float64) time.Duration {
	if len(lats) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), lats...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(q * float64(len(s)-1))
	return s[k]
}

// BenchmarkPoolHedgedTail measures the tail-latency win from hedging:
// a single occasionally-stalling backend versus a 3-replica hedged
// pool of the same backends. Every pass runs a fixed query count per
// arm so the p99 is comparable across iterations; the final pass is
// guarded (the hedged p99 must beat half the single-backend p99) and,
// when MQO_BENCH_JSON names a file, appended to it as one JSON line
// (the Makefile benchpool target points it at BENCH_pool.json).
func BenchmarkPoolHedgedTail(b *testing.B) {
	const (
		queries    = 600
		slowEvery  = 50 // ~2% of calls stall
		fastLat    = 200 * time.Microsecond
		slowLat    = 20 * time.Millisecond
		hedgeAfter = 2 * time.Millisecond
	)
	mk := func() llm.Predictor {
		return &tailPred{slowEvery: slowEvery, fast: fastLat, slow: slowLat}
	}
	measure := func(p llm.ContextPredictor) []time.Duration {
		lats := make([]time.Duration, queries)
		for i := range lats {
			start := time.Now()
			if _, err := p.QueryContext(context.Background(), fmt.Sprintf("q-%d", i)); err != nil {
				b.Fatal(err)
			}
			lats[i] = time.Since(start)
		}
		return lats
	}

	var p99Single, p99Hedged time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		single, err := New([]llm.Predictor{mk()}, Config{})
		if err != nil {
			b.Fatal(err)
		}
		hedged, err := New([]llm.Predictor{mk(), mk(), mk()}, Config{
			Hedge: true, HedgeAfter: hedgeAfter,
		})
		if err != nil {
			b.Fatal(err)
		}
		p99Single = percentile(measure(single), 0.99)
		p99Hedged = percentile(measure(hedged), 0.99)
	}
	b.StopTimer()

	b.ReportMetric(float64(p99Single.Microseconds())/1e3, "p99-single-ms")
	b.ReportMetric(float64(p99Hedged.Microseconds())/1e3, "p99-hedged-ms")
	// The stall is 100x the fast path and hedges fire at 1/10th of the
	// stall, so anything short of a 2x p99 win means hedging is broken.
	if p99Hedged*2 >= p99Single {
		b.Fatalf("hedging did not cut the tail: p99 single=%v hedged=%v", p99Single, p99Hedged)
	}

	if path := os.Getenv("MQO_BENCH_JSON"); path != "" {
		appendBenchJSON(b, path, map[string]any{
			"bench":          "BenchmarkPoolHedgedTail",
			"queries":        queries,
			"slow_every":     slowEvery,
			"hedge_after_ms": float64(hedgeAfter.Microseconds()) / 1e3,
			"p99_single_ms":  float64(p99Single.Microseconds()) / 1e3,
			"p99_hedged_ms":  float64(p99Hedged.Microseconds()) / 1e3,
		})
	}
}

// appendBenchJSON appends one JSON line to the benchmark results file
// (the Makefile benchpool target points MQO_BENCH_JSON at
// BENCH_pool.json).
func appendBenchJSON(b *testing.B, path string, fields map[string]any) {
	b.Helper()
	line, err := json.Marshal(fields)
	if err != nil {
		b.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(append(line, '\n')); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkPoolAffinityColdWarm measures the warm-path token win from
// cache-affine routing: 3 replicas, each fronting its own disk cache
// over a backend whose calls cost real latency. A cold sweep populates
// the per-replica shards, then a warm re-run of the same prompts
// measures *misroutes* — prompts sent to a replica whose cache never
// saw them, each paying a full backend call. Affinity routing is
// guarded at zero warm misroutes (serial driver, healthy replicas:
// the owner is always ready, so a single miss is a placement bug);
// the P2C arm shows the cost of cache-blind routing on the same
// workload, and must misroute — if it stops doing so, the baseline is
// broken and the comparison meaningless.
func BenchmarkPoolAffinityColdWarm(b *testing.B) {
	const (
		queries    = 400
		replicas   = 3
		backendLat = 500 * time.Microsecond
	)
	build := func(affinity bool) (*Pool, []*tailPred) {
		inners := make([]*tailPred, replicas)
		wrapped := make([]llm.Predictor, replicas)
		for i := range wrapped {
			inners[i] = &tailPred{fast: backendLat}
			pc, err := promptcache.Open(b.TempDir(), promptcache.Config{})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { pc.Close() })
			wrapped[i] = promptcache.Wrap(inners[i], pc)
		}
		pl, err := New(wrapped, Config{Affinity: affinity})
		if err != nil {
			b.Fatal(err)
		}
		return pl, inners
	}
	backendCalls := func(inners []*tailPred) int64 {
		var n int64
		for _, p := range inners {
			n += p.calls.Load()
		}
		return n
	}
	sweep := func(pl *Pool) time.Duration {
		start := time.Now()
		for i := 0; i < queries; i++ {
			if _, err := pl.QueryContext(context.Background(), fmt.Sprintf("q-%d", i)); err != nil {
				b.Fatal(err)
			}
		}
		return time.Since(start)
	}

	var affinityMisroutes, p2cMisroutes int64
	var coldWall, warmWall time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		affPool, affInners := build(true)
		coldWall = sweep(affPool)
		cold := backendCalls(affInners)
		warmWall = sweep(affPool)
		affinityMisroutes = backendCalls(affInners) - cold

		p2cPool, p2cInners := build(false)
		sweep(p2cPool)
		p2cCold := backendCalls(p2cInners)
		sweep(p2cPool)
		p2cMisroutes = backendCalls(p2cInners) - p2cCold
	}
	b.StopTimer()

	affRate := float64(affinityMisroutes) / float64(queries)
	p2cRate := float64(p2cMisroutes) / float64(queries)
	b.ReportMetric(affRate, "warm-misroute-rate")
	b.ReportMetric(p2cRate, "warm-misroute-rate-p2c")
	b.ReportMetric(float64(coldWall.Microseconds())/1e3, "cold-ms")
	b.ReportMetric(float64(warmWall.Microseconds())/1e3, "warm-ms")
	if affinityMisroutes != 0 {
		b.Fatalf("affinity warm pass misrouted %d/%d prompts; warm shards must stay pinned to their owner", affinityMisroutes, queries)
	}
	if p2cRate < 0.2 {
		b.Fatalf("p2c baseline misrouted only %.2f of warm prompts; the comparison arm is broken", p2cRate)
	}

	if path := os.Getenv("MQO_BENCH_JSON"); path != "" {
		appendBenchJSON(b, path, map[string]any{
			"bench":                  "BenchmarkPoolAffinityColdWarm",
			"queries":                queries,
			"replicas":               replicas,
			"backend_ms":             float64(backendLat.Microseconds()) / 1e3,
			"warm_misroute_rate":     affRate,
			"warm_misroute_rate_p2c": p2cRate,
			"cold_ms":                float64(coldWall.Microseconds()) / 1e3,
			"warm_ms":                float64(warmWall.Microseconds()) / 1e3,
		})
	}
}
