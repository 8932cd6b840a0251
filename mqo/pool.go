package mqo

import (
	"repro/internal/pool"
)

// Pool is an llm-compatible predictor that fans queries across N
// replica backends with health-aware (power-of-two-choices) routing,
// per-replica circuit breakers and optional hedged requests. Most
// callers reach it through Options.Replicas / Options.ReplicaSet; the
// type is exported for direct use with NewBatchExecutor.
type Pool = pool.Pool

// PoolConfig tunes a Pool: hedging, per-replica breakers, cache-affine
// routing (Affinity: each prompt-cache key is pinned to its rendezvous
// owner, so warm per-replica caches never pay cold-replica tokens) and
// the metrics sink.
type PoolConfig = pool.Config

// NewPool builds a replica pool over the given backends. The same
// predictor value may appear several times; each slot keeps its own
// breaker and health state.
func NewPool(replicas []Predictor, cfg PoolConfig) (*Pool, error) {
	return pool.New(replicas, cfg)
}
