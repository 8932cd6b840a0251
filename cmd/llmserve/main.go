// Command llmserve exposes the simulated LLM behind an OpenAI-
// compatible chat-completions endpoint, so the optimization pipeline —
// or any OpenAI client — can be exercised across a real network
// boundary.
//
// Usage:
//
//	llmserve -dataset cora -profile gpt-3.5 -addr :8080
//	curl -s localhost:8080/v1/chat/completions -d '{
//	  "model": "sim", "messages": [{"role":"user","content":"<prompt>"}]}'
//
// Operational endpoints:
//
//	GET /metrics           Prometheus text-format metrics
//	GET /healthz           JSON liveness (uptime, served requests)
//	GET /debug/traces      last N request spans from the trace ring
//	GET /debug/querytrace  per-request span tree + stage ledger (?id=<trace>)
//	GET /debug/slo         SLO pass/fail + error-budget burn (503 on fail)
//	GET /debug/pprof/      runtime profiling (only with -pprof)
//
// Every request is logged as one structured JSON line (method, path,
// status, latency, tokens) on stderr.
//
// The served model is deterministic for a given (dataset, profile,
// seed); prompts must follow the Table III templates (build them with
// the mqo package or the prompt package).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cliflags"
	"repro/internal/llm"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/predictors"
	"repro/internal/promptcache"
	"repro/internal/serve"
	"repro/internal/tag"
	"repro/internal/xrand"
)

func main() {
	var (
		dataset   = flag.String("dataset", "cora", "dataset whose vocabulary/classes back the simulator")
		profile   = flag.String("profile", "gpt-3.5", "simulated profile: gpt-3.5 or gpt-4o-mini")
		seed      = flag.Uint64("seed", 1, "deterministic seed")
		scale     = flag.Float64("scale", 1, "dataset scale factor")
		addr      = flag.String("addr", ":8080", "listen address")
		apiKey    = flag.String("api-key", "", "require this Bearer token when non-empty")
		pprofOn   = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
		drain     = flag.Duration("drain", 10*time.Second, "graceful-shutdown deadline for in-flight requests on SIGINT/SIGTERM")
		traceCap  = flag.Int("trace-capacity", obs.DefaultTraceCapacity, "request spans retained by /debug/traces")
		accessLog = flag.Bool("access-log", true, "log one JSON line per request to stderr")
		traceRate = flag.Float64("trace-sample", 1, "fraction of requests traced with span trees and ledgers (0 = none, 1 = all)")
		sloP99    = flag.Duration("slo-latency-p99", 0, "p99 request-latency objective for /debug/slo (0 = disabled)")
		slowQuery = flag.Duration("slow-query", 0, "log requests slower than this with their full stage breakdown (0 = disabled)")
		cacheDir  = flag.String("cache-dir", "", "persistent prompt-cache directory; repeated prompts are served from disk across restarts (empty = no cache)")
		cacheMax  = flag.Int64("cache-max-bytes", 0, "prompt-cache byte budget across shards (0 = unbounded)")
		cacheTTL  = flag.Duration("cache-ttl", 0, "prompt-cache entry lifetime (0 = never expires)")

		upstreams     = flag.String("upstreams", "", "comma-separated base URLs of upstream OpenAI-compatible endpoints; when set, llmserve proxies through the health-aware replica pool instead of serving the local simulator")
		upstreamModel = flag.String("upstream-model", "sim", "model identifier sent to the -upstreams endpoints")
		hedge         = flag.Bool("hedge", false, "race a second upstream when the first outlives -hedge-after (needs >= 2 -upstreams)")
		hedgeAfter    = flag.Duration("hedge-after", 0, "hedge trigger delay (0 = 50ms default)")
		affinity      = flag.Bool("affinity", false, "route each prompt to its cache-affine upstream (rendezvous over prompt-cache keys), so N llmserve nodes each keep their own cache shard warm")
		breakerN      = flag.Int("breaker", 0, "consecutive transient failures that eject an upstream from rotation (0 = disabled)")
		breakerCool   = flag.Duration("breaker-cooldown", 0, "how long an ejected upstream stays out before probing (0 = 30s default)")
	)
	var sv cliflags.Serve
	sv.Register(flag.CommandLine)
	flag.Parse()

	spec, err := tag.SpecByName(*dataset)
	if err != nil {
		log.Fatalf("llmserve: %v", err)
	}
	g := tag.Generate(spec, *seed, tag.Options{Scale: *scale})

	var p llm.Profile
	switch *profile {
	case "gpt-3.5":
		p = llm.GPT35()
	case "gpt-4o-mini":
		p = llm.GPT4oMini()
	default:
		log.Fatalf("llmserve: unknown profile %q (want gpt-3.5 or gpt-4o-mini)", *profile)
	}

	reg := obs.NewRegistry()
	reg.SetTraceCapacity(*traceCap)
	reg.SetTraceSample(*traceRate)
	if *sloP99 > 0 {
		reg.SetSLO(obs.SLO{Name: "request_latency_p99", Objective: *sloP99, Percentile: 0.99})
	}
	if *slowQuery > 0 {
		reg.SetSlowQueryLog(*slowQuery, obs.NewLogger(os.Stderr))
	}
	obs.SetDefault(reg)

	sim := llm.NewSim(p, g.Vocab, g.Classes, *seed)
	sim.SetObserver(reg)
	var served llm.Predictor = sim
	if *upstreams != "" {
		// Multi-upstream mode: fan requests across N OpenAI-compatible
		// backends through the replica pool (power-of-two-choices
		// routing, per-upstream breakers, optional hedging). The local
		// simulator is not used.
		var backends []llm.Predictor
		for _, u := range strings.Split(*upstreams, ",") {
			u = strings.TrimSpace(u)
			if u == "" {
				continue
			}
			hp, err := llm.NewHTTPPredictor(llm.HTTPConfig{BaseURL: u, Model: *upstreamModel})
			if err != nil {
				log.Fatalf("llmserve: upstream %q: %v", u, err)
			}
			backends = append(backends, hp)
		}
		pl, err := pool.New(backends, pool.Config{
			Hedge:      *hedge,
			HedgeAfter: *hedgeAfter,
			Breaker:    pool.BreakerConfig{Threshold: *breakerN, Cooldown: *breakerCool},
			// With -affinity each upstream owns the rendezvous shard of
			// the prompt-key space its own server-side cache has been
			// accumulating, so a warm prompt is never re-bought from a
			// cold upstream.
			Affinity: *affinity,
			Obs:      reg,
		})
		if err != nil {
			log.Fatalf("llmserve: building upstream pool: %v", err)
		}
		served = pl
		fmt.Printf("llmserve: pooling %d upstreams (hedge=%v affinity=%v)\n", pl.Size(), *hedge, *affinity)
	}
	if *cacheDir != "" {
		// Server-side persistent cache: repeated prompts answer from disk
		// without touching the simulator, across restarts.
		pcache, err := promptcache.Open(*cacheDir, promptcache.Config{
			MaxBytes: *cacheMax, TTL: *cacheTTL, Obs: reg,
		})
		if err != nil {
			log.Fatalf("llmserve: opening prompt cache: %v", err)
		}
		defer pcache.Close()
		served = promptcache.Wrap(served, pcache)
	}
	h := llm.NewHandler(served)
	h.RequireKey = *apiKey
	h.Obs = reg

	// The online serving tier fronts the same predictor stack with
	// micro-batched, coalesced MQO plans; nil unless -serve is set.
	var tier *serve.Server
	if sv.Enabled {
		method, err := predictors.ByName(sv.Method)
		if err != nil {
			log.Fatalf("llmserve: -serve-method: %v", err)
		}
		split := g.SplitPerClass(xrand.New(*seed+1), sv.Labeled, 0)
		pctx := &predictors.Context{
			Graph: g,
			Known: predictors.KnownFromSplit(g, split),
			M:     sv.M,
			Seed:  *seed,
			Obs:   reg,
		}
		scfg := sv.Config()
		scfg.Obs = reg
		tier, err = serve.New(pctx, method, served, scfg)
		if err != nil {
			log.Fatalf("llmserve: serving tier: %v", err)
		}
		fmt.Printf("llmserve: online query tier on %s (method=%s window=%v queue=%d)\n",
			serve.QueryPath, method.Name(), scfg.Window, scfg.MaxQueue)
	}

	var draining atomic.Bool
	start := time.Now()
	mux := http.NewServeMux()
	mux.Handle(llm.ChatCompletionsPath, h)
	if tier != nil {
		mux.Handle(serve.QueryPath, serve.Handler(tier))
	}
	mux.Handle("/metrics", reg.Handler())
	mux.Handle("/debug/traces", obs.TraceHandler(reg))
	mux.Handle("/debug/querytrace", obs.QueryTraceHandler(reg))
	mux.Handle("/debug/slo", obs.SLOHandler(reg))
	mux.Handle("/healthz", &healthz{
		model:    p.Name,
		dataset:  g.Display,
		start:    start,
		requests: h.Requests,
		draining: &draining,
	})
	if *pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}

	var handler http.Handler = mux
	if *accessLog {
		handler = obs.AccessLog(obs.NewLogger(os.Stderr), mux)
	}

	fmt.Printf("llmserve: %s profile over %s (%d nodes, %d classes) on %s%s (metrics on /metrics, health on /healthz)\n",
		p.Name, g.Display, g.NumNodes(), len(g.Classes), *addr, llm.ChatCompletionsPath)
	srv := &http.Server{
		Addr:    *addr,
		Handler: handler,
		// Timeouts guarantee a half-sent or stalled request cannot pin
		// a connection (and the predictor mutex queue) forever.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       60 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	// Serve until SIGINT/SIGTERM, then drain: stop accepting, let
	// in-flight requests finish within the drain deadline, and only then
	// exit. The old log.Fatal(ListenAndServe()) hard-killed mid-request.
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		log.Fatalf("llmserve: %v", err)
	case sig := <-sigCh:
		fmt.Printf("llmserve: %v received, draining for up to %v...\n", sig, *drain)
		// Flip /healthz to 503 before the listener starts refusing, so
		// load balancers stop routing while in-flight work drains.
		draining.Store(true)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Fatalf("llmserve: shutdown: %v", err)
		}
		if tier != nil {
			// HTTP requests are gone; answer anything still queued in
			// the serving tier, then stop its batcher.
			tier.Close()
		}
		if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("llmserve: %v", err)
		}
		fmt.Printf("llmserve: drained, %d requests served\n", h.Requests())
	}
}
