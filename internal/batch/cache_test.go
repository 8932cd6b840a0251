package batch

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/llm"
	"repro/internal/obs"
	"repro/internal/promptcache"
)

func openCache(t *testing.T, cfg promptcache.Config) *promptcache.Cache {
	t.Helper()
	c, err := promptcache.Open(t.TempDir(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestDiskTierServesSecondExecutor is the cache's reason to exist: a
// second executor over the same disk cache (a re-run of the same
// workload) pays zero predictor calls.
func TestDiskTierServesSecondExecutor(t *testing.T) {
	disk := openCache(t, promptcache.Config{})
	p := newScripted()
	e1, err := New(p, Config{Workers: 4, Disk: disk})
	if err != nil {
		t.Fatal(err)
	}
	all := reqs(50)
	res1, err := e1.Execute(context.Background(), all)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Failed != 0 || res1.CacheHits != 0 {
		t.Fatalf("cold run: %+v", res1)
	}
	if p.total.Load() != 50 {
		t.Fatalf("cold run paid %d calls, want 50", p.total.Load())
	}

	// Fresh executor over the same store: every answer must come from
	// disk, with token meters intact so accounting reproduces.
	e2, err := New(p, Config{Workers: 4, Disk: disk})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := e2.Execute(context.Background(), all)
	if err != nil {
		t.Fatal(err)
	}
	if p.total.Load() != 50 {
		t.Fatalf("warm run paid %d extra calls, want 0", p.total.Load()-50)
	}
	if res2.CacheHits != 50 || res2.Failed != 0 {
		t.Fatalf("warm run: %+v", res2)
	}
	for id, o := range res2.Outcomes {
		if !o.Cached || o.Err != nil {
			t.Fatalf("outcome %s not served from cache: %+v", id, o)
		}
		want := res1.Outcomes[id].Response
		if o.Response != want {
			t.Fatalf("outcome %s changed across runs: %+v vs %+v", id, o.Response, want)
		}
	}
}

// TestDiskTierSurvivesReopen: the warm run happens after the cache is
// closed and reopened, i.e. across a process restart.
func TestDiskTierSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	p := newScripted()
	disk, err := promptcache.Open(dir, promptcache.Config{})
	if err != nil {
		t.Fatal(err)
	}
	e1, err := New(p, Config{Disk: disk})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e1.Execute(context.Background(), reqs(10)); err != nil {
		t.Fatal(err)
	}
	if err := disk.Close(); err != nil {
		t.Fatal(err)
	}

	disk2, err := promptcache.Open(dir, promptcache.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer disk2.Close()
	e2, err := New(p, Config{Disk: disk2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e2.Execute(context.Background(), reqs(10))
	if err != nil {
		t.Fatal(err)
	}
	if p.total.Load() != 10 {
		t.Fatalf("restart re-paid %d calls", p.total.Load()-10)
	}
	if res.CacheHits != 10 {
		t.Fatalf("restart run: %+v", res)
	}
}

// TestDiskNamespaceSeparates: two executors over the same disk cache
// but different namespaces must not share answers.
func TestDiskNamespaceSeparates(t *testing.T) {
	disk := openCache(t, promptcache.Config{})
	p := newScripted()
	e1, _ := New(p, Config{Disk: disk, CacheNamespace: "model-a"})
	if _, err := e1.Execute(context.Background(), reqs(5)); err != nil {
		t.Fatal(err)
	}
	e2, _ := New(p, Config{Disk: disk, CacheNamespace: "model-b"})
	res, err := e2.Execute(context.Background(), reqs(5))
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHits != 0 {
		t.Fatalf("namespace b hit namespace a's entries: %+v", res)
	}
	if p.total.Load() != 10 {
		t.Fatalf("total calls %d, want 10 (no cross-namespace sharing)", p.total.Load())
	}
}

// TestReconcileCacheNewerWins covers one half of satellite order: the
// audit log recorded a garbage-fault answer, a later retry wrote the
// corrected answer to the disk cache. The cache entry is newer and must
// win.
func TestReconcileCacheNewerWins(t *testing.T) {
	disk := openCache(t, promptcache.Config{})
	const ns = "ns"
	promptText := "who goes there"
	key := promptcache.KeyOf(ns, promptText)
	if err := disk.Put(key, llm.Response{Text: "Category: ['Good']", Category: "Good", InputTokens: 9, OutputTokens: 1}); err != nil {
		t.Fatal(err)
	}

	// The log line predates the cache write by decades.
	log := `{"time":"2001-01-01T00:00:00Z","id":"q1","prompt_sha256":"x","input_tokens":9,"output_tokens":1,"category":"Garbage","attempts":1}`
	recs, err := ReplayLogRecords(strings.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	out := ReconcileWithCache(recs, map[string]string{"q1": promptText}, disk, ns)
	if out["q1"].Category != "Good" {
		t.Fatalf("stale log record won over newer cache: %+v", out["q1"])
	}
}

// TestReconcileLogNewerWinsAndRepairsCache covers the mirror order: the
// cache holds a stale answer (written before the log line), so the
// resume record wins and the cache is repaired in place.
func TestReconcileLogNewerWinsAndRepairsCache(t *testing.T) {
	disk := openCache(t, promptcache.Config{})
	const ns = "ns"
	promptText := "who goes there"
	key := promptcache.KeyOf(ns, promptText)
	if err := disk.Put(key, llm.Response{Text: "Category: ['Stale']", Category: "Stale", InputTokens: 9, OutputTokens: 1}); err != nil {
		t.Fatal(err)
	}

	// The log line postdates the cache write by decades.
	log := `{"time":"2101-01-01T00:00:00Z","id":"q1","prompt_sha256":"x","input_tokens":9,"output_tokens":1,"category":"Fresh","attempts":2}`
	recs, err := ReplayLogRecords(strings.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	out := ReconcileWithCache(recs, map[string]string{"q1": promptText}, disk, ns)
	if out["q1"].Category != "Fresh" {
		t.Fatalf("newer log record lost to stale cache: %+v", out["q1"])
	}
	if repaired, ok := disk.Get(key); !ok || repaired.Category != "Fresh" {
		t.Fatalf("stale cache entry not repaired: %+v ok=%v", repaired, ok)
	}
}

// TestReconcileBackfillsAndPassesThrough: a cache miss is backfilled
// from the resume record; IDs without a prompt mapping (or a nil cache)
// pass through untouched.
func TestReconcileBackfillsAndPassesThrough(t *testing.T) {
	disk := openCache(t, promptcache.Config{})
	const ns = "ns"
	log := strings.Join([]string{
		`{"time":"2026-01-01T00:00:00Z","id":"q1","prompt_sha256":"x","input_tokens":5,"category":"K","attempts":1}`,
		`{"time":"2026-01-01T00:00:00Z","id":"q2","prompt_sha256":"y","input_tokens":5,"category":"L","attempts":1}`,
	}, "\n")
	recs, err := ReplayLogRecords(strings.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	out := ReconcileWithCache(recs, map[string]string{"q1": "prompt one"}, disk, ns)
	if out["q1"].Category != "K" || out["q2"].Category != "L" {
		t.Fatalf("reconcile corrupted agreeing records: %+v", out)
	}
	if got, ok := disk.Get(promptcache.KeyOf(ns, "prompt one")); !ok || got.Category != "K" {
		t.Fatalf("cache not backfilled from resume record: %+v ok=%v", got, ok)
	}
	if disk.Len() != 1 {
		t.Fatalf("unmapped ID written to cache: %d entries", disk.Len())
	}

	nilOut := ReconcileWithCache(recs, map[string]string{"q1": "prompt one"}, nil, ns)
	if nilOut["q1"].Category != "K" || nilOut["q2"].Category != "L" {
		t.Fatalf("nil cache changed records: %+v", nilOut)
	}
}

// TestResumeAgainstCacheEndToEnd drives the full crash story with a
// disk tier: run one, crash (log kept, new process), reconcile, resume.
// The resume run must bill only the unfinished queries, and queries
// recovered from the log must also now be in the cache.
func TestResumeAgainstCacheEndToEnd(t *testing.T) {
	disk := openCache(t, promptcache.Config{})
	const ns = "scripted|tmpl=test"
	p := newScripted()
	p.tokens = 100

	var logBuf bytes.Buffer
	all := reqs(10)
	prompts := make(map[string]string, len(all))
	for _, r := range all {
		prompts[r.ID] = r.Prompt
	}

	e1, err := New(p, Config{Workers: 1, BudgetTokens: 400, Log: &logBuf, Disk: disk, CacheNamespace: ns})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e1.Execute(context.Background(), all); err != nil {
		t.Fatal(err)
	}

	recs, err := ReplayLogRecords(bytes.NewReader(logBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	done := ReconcileWithCache(recs, prompts, disk, ns)
	todo, recovered := FilterDone(all, done)
	if len(todo)+len(recovered) != 10 || len(recovered) != 4 {
		t.Fatalf("FilterDone: %d todo / %d recovered", len(todo), len(recovered))
	}

	callsBefore := p.total.Load()
	e2, err := New(p, Config{Workers: 2, Disk: disk, CacheNamespace: ns})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := e2.Execute(context.Background(), todo)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Failed != 0 {
		t.Fatalf("resume run failed queries: %+v", res2)
	}
	if got := p.total.Load() - callsBefore; got != int64(len(todo)) {
		t.Errorf("resume billed %d queries, want %d", got, len(todo))
	}
	// Every completed query — recovered or resumed — is now cached, so
	// a third run costs nothing.
	e3, err := New(p, Config{Disk: disk, CacheNamespace: ns})
	if err != nil {
		t.Fatal(err)
	}
	calls := p.total.Load()
	res3, err := e3.Execute(context.Background(), all)
	if err != nil {
		t.Fatal(err)
	}
	if p.total.Load() != calls {
		t.Errorf("third run paid %d calls, want 0", p.total.Load()-calls)
	}
	if res3.CacheHits != 10 {
		t.Errorf("third run: %+v", res3)
	}
}

// TestEvictionUnderConcurrentExecute is the satellite -race test: many
// Execute calls hammer one 1-shard cache with a byte budget a fraction
// of the working set. No update may be lost (every outcome correct),
// and the cache's Stats must reconcile exactly with its mqo_cache_*
// metrics when the dust settles.
func TestEvictionUnderConcurrentExecute(t *testing.T) {
	reg := obs.NewRegistry()
	disk, err := promptcache.Open(t.TempDir(), promptcache.Config{Shards: 1, MaxBytes: 512, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()

	const execs = 6
	var wg sync.WaitGroup
	errs := make(chan error, execs)
	for g := 0; g < execs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := newScripted()
			e, err := New(p, Config{Workers: 4, Disk: disk, CacheNamespace: "race"})
			if err != nil {
				errs <- err
				return
			}
			// Overlapping but distinct working sets, far over the 512-byte
			// budget, so puts constantly evict while other executors read.
			rs := make([]Request, 30)
			for i := range rs {
				rs[i] = Request{ID: fmt.Sprintf("g%d-q%d", g, i), Prompt: fmt.Sprintf("prompt %d", (g*7+i)%40)}
			}
			res, err := e.Execute(context.Background(), rs)
			if err != nil {
				errs <- err
				return
			}
			for id, o := range res.Outcomes {
				if o.Err != nil {
					errs <- fmt.Errorf("outcome %s: %w", id, o.Err)
					return
				}
				if o.Response.Category != "A" {
					errs <- fmt.Errorf("outcome %s lost its update: %+v", id, o.Response)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := disk.Stats()
	if st.Bytes > 512 {
		t.Fatalf("live bytes %d exceed the 512-byte budget", st.Bytes)
	}
	if st.Evictions == 0 {
		t.Fatal("a working set 10x the budget produced no evictions")
	}
	if got := reg.CounterValue("mqo_cache_hits_total"); got != float64(st.Hits) {
		t.Fatalf("hits counter %v != stats %d", got, st.Hits)
	}
	if got := reg.CounterValue("mqo_cache_misses_total"); got != float64(st.Misses) {
		t.Fatalf("misses counter %v != stats %d", got, st.Misses)
	}
	evicted := reg.CounterValue("mqo_cache_evictions_total", "reason", "lru") +
		reg.CounterValue("mqo_cache_evictions_total", "reason", "expired")
	if evicted != float64(st.Evictions) {
		t.Fatalf("eviction counters %v != stats %d", evicted, st.Evictions)
	}
	if got := reg.GaugeValue("mqo_cache_bytes"); got != float64(st.Bytes) {
		t.Fatalf("bytes gauge %v != stats %d", got, st.Bytes)
	}
}
