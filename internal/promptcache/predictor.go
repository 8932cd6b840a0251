package promptcache

import (
	"context"
	"time"

	"repro/internal/llm"
	"repro/internal/obs"
)

// Wrap fronts a predictor with the cache: hits answer from disk state,
// misses query the inner predictor and persist the answer. The
// namespace is derived from the inner predictor (Namespace), so a
// wrapped simulator reseeded tomorrow reads none of today's entries.
//
// llmserve uses this to make the *server side* of the stack
// persistent: repeated prompts from any client cost zero predictor
// work across restarts. The batch executor does not use Wrap: it
// consults the cache itself, after its single-flight by prompt, so
// concurrent identical prompts cost one lookup and at most one call.
func Wrap(p llm.Predictor, c *Cache) llm.Predictor {
	w := &cachingPredictor{inner: p, cache: c, ns: Namespace(p)}
	if cp, ok := p.(llm.ContextPredictor); ok {
		return &cachingCtxPredictor{cachingPredictor: w, cp: cp}
	}
	return w
}

type cachingPredictor struct {
	inner llm.Predictor
	cache *Cache
	ns    string
}

// Name implements llm.Predictor. The wrapper is answer-transparent, so
// it keeps the inner name (clients see the same model id).
func (w *cachingPredictor) Name() string { return w.inner.Name() }

// Identity implements llm.Identifier by forwarding the inner identity:
// caching does not change the answer function.
func (w *cachingPredictor) Identity() string { return llm.IdentityOf(w.inner) }

// Query implements llm.Predictor with a read-through cache.
func (w *cachingPredictor) Query(promptText string) (llm.Response, error) {
	k := KeyOf(w.ns, promptText)
	if resp, ok := w.cache.Get(k); ok {
		return resp, nil
	}
	resp, err := w.inner.Query(promptText)
	if err != nil {
		return resp, err
	}
	// A full disk must not fail the query: the answer is correct, only
	// its persistence is lost.
	_ = w.cache.Put(k, resp)
	return resp, nil
}

// cachingCtxPredictor keeps the cancelable path of context-aware inner
// predictors.
type cachingCtxPredictor struct {
	*cachingPredictor
	cp llm.ContextPredictor
}

// QueryContext implements llm.ContextPredictor with the same
// read-through behaviour as Query, plus tracing: the lookup gets a
// child span (result=hit|miss), and hits charge the request's ledger
// under the cache stage — unbilled, because the enclosing server
// handler bills the whole serve to the predict stage and the ledger
// must not count the same request twice.
func (w *cachingCtxPredictor) QueryContext(ctx context.Context, promptText string) (llm.Response, error) {
	k := KeyOf(w.ns, promptText)
	start := time.Now()
	_, sp := obs.StartSpanCtx(ctx, w.cache.rec, "cache.lookup")
	if resp, ok := w.cache.Get(k); ok {
		sp.SetAttr("result", "hit")
		sp.End()
		obs.Charge(ctx, obs.StageCache, time.Since(start), resp.InputTokens+resp.OutputTokens, false)
		return resp, nil
	}
	sp.SetAttr("result", "miss")
	sp.End()
	resp, err := w.cp.QueryContext(ctx, promptText)
	if err != nil {
		return resp, err
	}
	_ = w.cache.Put(k, resp)
	return resp, nil
}
