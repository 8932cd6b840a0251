// Package cliflags defines the execution-layer flag group shared by
// the mqorun and mqobench commands: concurrency, rate limiting,
// per-query deadlines, the circuit breaker, the replica pool and the
// persistent prompt cache. Registering one group from one place keeps
// the two CLIs' flags in lockstep — mqobench once silently lacked the
// -breaker flags mqorun had, and the parity test over Names() makes
// that class of drift a test failure instead of a support question.
package cliflags

import (
	"flag"

	"time"

	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/prompt"
)

// Exec holds the shared execution flags after parsing.
type Exec struct {
	Workers         int
	QPS             float64
	QueryTimeout    time.Duration
	Breaker         int
	BreakerCooldown time.Duration
	Replicas        int
	Hedge           bool
	HedgeAfter      time.Duration
	Affinity        bool
	CacheDir        string
	CacheMaxBytes   int64
	CacheTTL        time.Duration
	Compress        int
	TargetTokens    int
	TraceSample     float64
	SLOLatencyP99   time.Duration
}

// Register installs the shared flag group on fs. Call before
// fs.Parse; the receiver's fields carry the parsed values afterwards.
func (e *Exec) Register(fs *flag.FlagSet) {
	fs.IntVar(&e.Workers, "workers", 1, "concurrent LLM queries (results are identical for any value)")
	fs.Float64Var(&e.QPS, "qps", 0, "max queries per second across all workers (0 = unlimited)")
	fs.DurationVar(&e.QueryTimeout, "query-timeout", 0, "per-query deadline; hung calls are abandoned (0 = none)")
	fs.IntVar(&e.Breaker, "breaker", 0, "consecutive transient failures that open the circuit breaker (0 = disabled)")
	fs.DurationVar(&e.BreakerCooldown, "breaker-cooldown", 0, "how long the breaker stays open before probing (0 = 30s default)")
	fs.IntVar(&e.Replicas, "replicas", 1, "replica slots in the predictor pool; > 1 enables health-aware routing with one breaker per replica")
	fs.BoolVar(&e.Hedge, "hedge", false, "race a second replica when the first outlives -hedge-after (needs -replicas > 1)")
	fs.DurationVar(&e.HedgeAfter, "hedge-after", 0, "hedge trigger delay (0 = 50ms default)")
	fs.BoolVar(&e.Affinity, "affinity", false, "route each prompt to its cache-affine replica (rendezvous over prompt-cache keys; falls back to P2C when the owner is ejected or overloaded; needs -replicas > 1)")
	fs.StringVar(&e.CacheDir, "cache-dir", "", "persistent prompt-cache directory (empty = no disk cache)")
	fs.Int64Var(&e.CacheMaxBytes, "cache-max-bytes", 0, "prompt-cache byte budget across shards (0 = unbounded)")
	fs.DurationVar(&e.CacheTTL, "cache-ttl", 0, "prompt-cache entry lifetime (0 = never expires)")
	fs.IntVar(&e.Compress, "compress", 0, "prompt-compression level 1..3: rank abstract spans by signal density and keep at most 4/2/1 per abstract (0 = off; versions the prompt-cache namespace)")
	fs.IntVar(&e.TargetTokens, "target-tokens", 0, "per-query compressed token budget; sparsest spans keep dropping until each prompt fits (0 = level caps only; implies -compress 1)")
	fs.Float64Var(&e.TraceSample, "trace-sample", 1, "fraction of query traces recorded with span trees and ledgers (0 = none, 1 = all)")
	fs.DurationVar(&e.SLOLatencyP99, "slo-latency-p99", 0, "per-query p99 latency objective for the SLO engine (0 = disabled)")
}

// Names lists every flag Register installs. The CLI parity test
// asserts each command's usage text mentions all of them.
func Names() []string {
	return []string{
		"workers", "qps", "query-timeout",
		"breaker", "breaker-cooldown",
		"replicas", "hedge", "hedge-after", "affinity",
		"cache-dir", "cache-max-bytes", "cache-ttl",
		"compress", "target-tokens",
		"trace-sample", "slo-latency-p99",
	}
}

// Compressor lowers the compression flags into the prompt stage's
// configuration; the zero flags produce the disabled zero Compressor.
func (e *Exec) Compressor() prompt.Compressor {
	return prompt.Compressor{Level: e.Compress, TargetTokens: e.TargetTokens}
}

// ApplyObs lowers the tracing/SLO flags onto a registry: the sampling
// rate always, the SLO only when an objective is set (the engine stays
// unconfigured otherwise and /debug/slo reports so).
func (e *Exec) ApplyObs(r *obs.Registry) {
	if r == nil {
		return
	}
	r.SetTraceSample(e.TraceSample)
	if e.SLOLatencyP99 > 0 {
		r.SetSLO(obs.SLO{Name: "query_latency_p99", Objective: e.SLOLatencyP99, Percentile: 0.99})
	}
}

// BreakerConfig lowers the breaker flags into the replica pool's
// per-slot breaker configuration.
func (e *Exec) BreakerConfig() pool.BreakerConfig {
	return pool.BreakerConfig{Threshold: e.Breaker, Cooldown: e.BreakerCooldown}
}
