package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/predictors"
	"repro/internal/prompt"
	"repro/internal/promptcache"
	"repro/internal/tag"
	"repro/internal/token"
)

// replayInput is what the traced pass captured about the pure functions
// it could not wrap: the neighbor selection each query's prompt was
// built from, the queries built without neighbors, and every prompt a
// predictor answered.
type replayInput struct {
	ctx    *predictors.Context
	ranked bool
	sel    map[tag.NodeID][]predictors.Selected
	pruned []tag.NodeID
	comp   prompt.Compressor
	calls  []capturedCall
	// ns is the cache namespace the pass used; warm says its lookups
	// hit cacheDir, otherwise they missed and the answers were written.
	ns       string
	warm     bool
	cacheDir string
	scratch  string
}

// replayResult times predictors.BuildPrompt, prompt.Compressor,
// token.Count and the promptcache key, get and put paths on exactly the
// captured inputs.
type replayResult struct {
	nodeOf     map[uint64]tag.NodeID
	prompts    []string // the final prompt of every replayed query
	mismatched int

	build, compress, count, key, get, put time.Duration
	builtBytes                            int
	saved                                 share // tokens saved of tokens before compression
	countBytes, countCalls                int
	countAllocs                           uint64
	inputTokens                           int
	usesCache                             bool
}

func replay(in replayInput) (*replayResult, error) {
	rp := &replayResult{nodeOf: map[uint64]tag.NodeID{}, usesCache: in.ns != ""}
	type job struct {
		v   tag.NodeID
		sel []predictors.Selected
	}
	var jobs []job
	for v, sel := range in.sel {
		jobs = append(jobs, job{v, sel})
	}
	for _, v := range in.pruned {
		jobs = append(jobs, job{v: v})
	}
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].v < jobs[j].v })

	built := make([]string, len(jobs))
	t0 := time.Now()
	for i, j := range jobs {
		built[i] = predictors.BuildPrompt(in.ctx, j.v, j.sel, in.ranked && len(j.sel) > 0)
	}
	rp.build = time.Since(t0)
	rp.prompts = built
	for _, p := range built {
		rp.builtBytes += len(p)
	}
	if in.comp.Enabled() {
		rp.prompts = make([]string, len(built))
		t0 = time.Now()
		for i, p := range built {
			out, st := in.comp.CompressStats(p)
			rp.prompts[i] = out
			rp.saved.Num += float64(st.Saved())
			rp.saved.Base += float64(st.TokensBefore)
		}
		rp.compress = time.Since(t0)
	}
	for i, p := range rp.prompts {
		rp.nodeOf[promptHash(p)] = jobs[i].v
	}

	// The tokenizer ran inside the predictor on every prompt it answered
	// and on every answer.
	var texts []string
	for _, c := range in.calls {
		texts = append(texts, c.prompt, c.resp.Text)
		rp.inputTokens += c.resp.InputTokens
	}
	if len(texts) > 0 {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		t0 = time.Now()
		for _, s := range texts {
			token.Count(s)
		}
		rp.count = time.Since(t0)
		runtime.ReadMemStats(&ms1)
		rp.countCalls = len(texts)
		rp.countAllocs = ms1.Mallocs - ms0.Mallocs
		for _, s := range texts {
			rp.countBytes += len(s)
		}
	}

	// Every replayed prompt must be one the pass really sent: to the
	// predictor when it ran, or as a key the warm cache answered.
	sent := map[string]bool{}
	for _, c := range in.calls {
		sent[c.prompt] = true
	}
	if !rp.usesCache {
		for _, p := range rp.prompts {
			if !sent[p] {
				rp.mismatched++
			}
		}
		return rp, nil
	}
	keys := make([]promptcache.Key, len(rp.prompts))
	t0 = time.Now()
	for i, p := range rp.prompts {
		keys[i] = promptcache.KeyOf(in.ns, p)
	}
	rp.key = time.Since(t0)
	if in.warm {
		c, err := promptcache.Open(in.cacheDir, promptcache.Config{})
		if err != nil {
			return nil, err
		}
		defer c.Close()
		t0 = time.Now()
		for _, k := range keys {
			if _, ok := c.Get(k); !ok {
				rp.mismatched++
			}
		}
		rp.get = time.Since(t0)
		return rp, nil
	}
	for _, p := range rp.prompts {
		if !sent[p] {
			rp.mismatched++
		}
	}
	c, err := promptcache.Open(in.scratch+"/replay-cache", promptcache.Config{})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	t0 = time.Now()
	for _, k := range keys {
		c.Get(k)
	}
	rp.get = time.Since(t0)
	t0 = time.Now()
	for _, call := range in.calls {
		if err := c.Put(promptcache.KeyOf(in.ns, call.prompt), call.resp); err != nil {
			return nil, fmt.Errorf("replaying cache puts: %w", err)
		}
	}
	rp.put = time.Since(t0)
	return rp, nil
}

// report sets the per-layer metrics the replay measured.
func (rp *replayResult) report(r *run) {
	r.set("predictors.build_s", rp.build.Seconds())
	mean := 0.0
	if len(rp.prompts) > 0 {
		mean = float64(rp.builtBytes) / float64(len(rp.prompts))
	}
	r.set("predictors.prompt_bytes_mean", mean)
	r.set("prompt.compress_s", rp.compress.Seconds())
	r.set("prompt.compress_saved_share", rp.saved.Value())
	r.set("token.count_s", rp.count.Seconds())
	r.set("llm.input_tokens", float64(rp.inputTokens))
	rate, allocs := 0.0, 0.0
	if rp.count > 0 {
		rate = float64(rp.countBytes) / 1e6 / rp.count.Seconds()
	}
	if rp.countCalls > 0 {
		allocs = float64(rp.countAllocs) / float64(rp.countCalls)
	}
	r.set("token.count_mb_per_s", rate)
	r.set("token.count_allocs_per_call", allocs)
	r.set("promptcache.key_s", rp.key.Seconds())
	r.set("promptcache.get_s", rp.get.Seconds())
	r.set("promptcache.put_s", rp.put.Seconds())
	r.meta["replay"] = map[string]any{
		"prompts": len(rp.prompts), "compress_saved": rp.saved, "count_calls": rp.countCalls,
		"count_bytes": rp.countBytes, "mismatched": rp.mismatched,
	}
}
