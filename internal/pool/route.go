package pool

import (
	"hash/fnv"
	"sort"

	"repro/internal/promptcache"
	"repro/internal/xrand"
)

// This file is the pool's routing policy, split out from the mechanics
// of running attempts. For every attempt one of two ranking functions
// turns the replica set into a preference order; the pool walks that
// order and the per-replica breakers keep the final say on admission.
// p2cOrder is the default, latency×load power-of-two-choices policy;
// affinityOrder (Config.Affinity) places each prompt-cache key on its
// rendezvous owner, so a warm cache shard is owned by exactly one
// replica and a repeated prompt never pays cold-replica tokens.

// route is one routing decision: the prompt's cache key (zero unless
// affinity routing is on), the replica index a hedge must avoid because
// it already runs the same prompt (-1 excludes nothing), and the
// per-query stream P2C draws its candidates from. The draws must be
// identical for identical inputs, or routing stops being replayable.
type route struct {
	key     promptcache.Key
	exclude int
	rng     *xrand.RNG
}

// affinityRatio is the affinity overload guard: the key's owner is
// abandoned for one pick only when its score exceeds affinityRatio× the
// best alternative's AND its queue is affinityRatio× deeper. Both
// conditions are required because unobserved replicas score a near-zero
// sentinel — a score-only guard would exile warm traffic to any replica
// that simply hasn't served yet.
const affinityRatio = 4.0

// rank orders the candidate replica indices for one attempt, most
// preferred first (the excluded index never appears), and names the
// replica that structurally owns the attempt's cache key, or -1 under
// P2C. The owner may be missing from order or not first in it (ejected
// or overloaded); the pool still uses it to account the pick as an
// affinity hit or miss.
func (p *Pool) rank(rt route) (order []int, affine int) {
	if p.cfg.Affinity {
		return p.affinityOrder(rt)
	}
	return p.p2cOrder(rt, -1), -1
}

// p2cOrder is the power-of-two-choices ordering: draw two distinct
// candidates from the route's RNG, put the lower-scored one first, then
// append every other candidate ready-first by ascending score, so when
// the winner's breaker refuses, spill load spreads across the healthy
// replicas instead of piling onto the lowest index. Both rt.exclude and
// skip are left out entirely.
func (p *Pool) p2cOrder(rt route, skip int) []int {
	n := len(p.replicas)
	excluded := func(i int) bool { return i == rt.exclude || i == skip }
	m := 0
	for i := 0; i < n; i++ {
		if !excluded(i) {
			m++
		}
	}
	if m == 0 {
		return nil
	}
	// idx maps a candidate position in [0, m) to a replica index,
	// skipping the excluded ones.
	idx := func(k int) int {
		for i := 0; i < n; i++ {
			if excluded(i) {
				continue
			}
			if k == 0 {
				return i
			}
			k--
		}
		return -1
	}
	x := rt.rng.Intn(m)
	chosen := idx(x)
	if m > 1 {
		y := rt.rng.Intn(m - 1)
		if y >= x {
			y++ // shift past the first pick so the candidates differ
		}
		if cand := idx(y); p.replicas[cand].score() < p.replicas[chosen].score() {
			chosen = cand
		}
	}
	order := make([]int, 0, m)
	order = append(order, chosen)
	rest := make([]int, 0, m-1)
	for i := 0; i < n; i++ {
		if !excluded(i) && i != chosen {
			rest = append(rest, i)
		}
	}
	sort.SliceStable(rest, func(a, b int) bool {
		ra, rb := p.replicas[rest[a]], p.replicas[rest[b]]
		if ya, yb := ra.ready(), rb.ready(); ya != yb {
			return ya // admitted-looking replicas before ejected ones
		}
		return ra.score() < rb.score()
	})
	return append(order, rest...)
}

// affinityOrder routes each prompt to the replica that rendezvous
// hashing (highest random weight over the prompt-cache key) assigns as
// the owner of that key. Every replica whose disk cache saw the prompt
// once keeps answering it for free; adding or removing a replica moves
// only ~1/n of the key space (no modulo reshuffle). The full order is
// the rendezvous order, so:
//
//   - a hedge attempt, which excludes the primary, lands on the key's
//     *second* hash choice — the replica most likely to have the
//     prompt warm from a previous degraded pick — instead of a random
//     cold one;
//   - when the owner is ejected or overloaded, traffic for its shard
//     degrades to P2C over the healthy remainder (the owner is kept
//     last in the order so a half-open probe can still reach it when
//     everything else is down too).
func (p *Pool) affinityOrder(rt route) (order []int, affine int) {
	ord := p.rendezvousOrder(rt.key, rt.exclude)
	if len(ord) == 0 {
		return nil, -1
	}
	affine = ord[0]
	if p.replicas[affine].ready() && !p.overloaded(affine, rt.exclude) {
		return ord, affine
	}
	// Degraded path: the key's owner is ejected or drowning. Spread its
	// shard by P2C over the rest — concentrating a dead owner's load on
	// the second hash choice would just knock replicas over in
	// rendezvous order — but keep the owner last so a recovering
	// breaker still sees probes. affine stays set: these picks are the
	// misses the mqo_pool_affinity_misses_total counter exists to show.
	return append(p.p2cOrder(rt, affine), affine), affine
}

// overloaded is the guard that lets a hot shard spill: true only when
// the owner is clearly worse than the best other ready replica on both
// the score and the queue-depth axis (see affinityRatio for why both).
func (p *Pool) overloaded(affine, exclude int) bool {
	best := -1
	for i, r := range p.replicas {
		if i == affine || i == exclude || !r.ready() {
			continue
		}
		if best < 0 || r.score() < p.replicas[best].score() {
			best = i
		}
	}
	if best < 0 {
		return false // nowhere better to go
	}
	own, alt := p.replicas[affine], p.replicas[best]
	return own.score() > affinityRatio*alt.score() &&
		float64(own.inflight.Load()+1) > affinityRatio*float64(alt.inflight.Load()+1)
}

// rendezvousOrder returns every non-excluded replica index by
// descending highest-random-weight for key: position 0 is the key's
// owner, position 1 the second hash choice a hedge should stay warm
// on, and so on. Ties (possible only with colliding hashes) break by
// index for determinism.
func (p *Pool) rendezvousOrder(key promptcache.Key, exclude int) []int {
	ord := make([]int, 0, len(p.replicas))
	w := make([]uint64, len(p.replicas))
	for i, r := range p.replicas {
		if i == exclude {
			continue
		}
		ord = append(ord, i)
		w[i] = rendezvousWeight(key, r.rid)
	}
	sort.SliceStable(ord, func(a, b int) bool { return w[ord[a]] > w[ord[b]] })
	return ord
}

// rendezvousWeight hashes (key, replica identity) to the replica's
// weight for that key — FNV-1a 64, cheap and stable across processes.
func rendezvousWeight(key promptcache.Key, id string) uint64 {
	h := fnv.New64a()
	h.Write(key[:])
	h.Write([]byte(id))
	return h.Sum64()
}
