package main

import (
	"fmt"
	"maps"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/obs"
	"repro/internal/predictors"
	"repro/internal/prompt"
	"repro/internal/promptcache"
	"repro/internal/tag"
	"repro/mqo"
)

// Parameters every workload shares: Pubmed at full scale, the paper's
// per-class split, and 1-hop random neighbors capped at M=4.
const (
	dataset         = "pubmed"
	labeledPerClass = 20
	neighborsM      = 4
	batchQueries    = 6000
	batchWorkers    = 2
	pruneTau        = 0.2
	// batchDeadline is the batch workloads' latency limit: the time one
	// pass of the whole batch may take.
	batchDeadline = 60 * time.Second
)

func method() predictors.Method { return predictors.KHopRandom{K: 1} }

// batchSpec is one batch workload.
type batchSpec struct {
	name     string
	compress int  // prompt-compression level, 0 for none
	paper    bool // prune τ=0.2 and boost, the paper's cheapest setting
	warm     bool // read a disk cache filled during set-up
}

var (
	batchCold = batchSpec{name: "batch-cold", compress: 1, paper: true}
	batchWarm = batchSpec{name: "batch-warm", warm: true}
)

func (b batchSpec) options(cacheDir string) mqo.Options {
	return mqo.Options{
		Prune: b.paper, Tau: pruneTau, Boost: b.paper,
		Compress: b.compress, Workers: batchWorkers, CacheDir: cacheDir,
	}
}

// batchState is what set-up leaves for the measured passes.
type batchState struct {
	g *tag.Graph
	w *mqo.Workload
	// fillDir and fill are the warm cache and the pass that filled it.
	fillDir string
	fill    *mqo.Report
}

func newSim(g *tag.Graph, seed uint64) *llm.Sim { return mqo.NewSim(mqo.GPT35(), g, seed) }

func setupBatch(r *run, b batchSpec) (*batchState, error) {
	g, err := mqo.GenerateDatasetScaled(dataset, r.seed, 1)
	if err != nil {
		return nil, err
	}
	w := mqo.NewWorkload(g, labeledPerClass, batchQueries, neighborsM, r.seed)
	w.IncludeAbstracts = true
	st := &batchState{g: g, w: w}
	if b.warm {
		if st.fillDir, err = r.newDir("warm-"); err != nil {
			return nil, err
		}
		if st.fill, err = mqo.Optimize(w, method(), newSim(g, r.seed), b.options(st.fillDir)); err != nil {
			return nil, fmt.Errorf("filling the warm cache: %w", err)
		}
	}
	return st, nil
}

func runBatch(r *run, b batchSpec) error {
	st, err := timeSetup(r, func() (*batchState, error) { return setupBatch(r, b) },
		func(st *batchState) {
			if st.fillDir != "" {
				os.RemoveAll(st.fillDir)
			}
		})
	if err != nil {
		return err
	}
	r.meta["params"] = map[string]any{
		"dataset": dataset, "scale": 1, "nodes": st.g.NumNodes(), "method": method().Name(),
		"m": neighborsM, "labeled_per_class": labeledPerClass, "queries": len(st.w.Queries),
		"abstracts": true, "workers": batchWorkers, "prune_tau": b.paper, "boost": b.paper,
		"compress": b.compress, "warm": b.warm,
	}
	var calib int
	if b.paper {
		if calib, err = calibrationTokens(st, r.seed); err != nil {
			return err
		}
	}
	if r.trace {
		return tracedBatch(r, b, st, calib)
	}
	var walls, rates []float64
	var first *mqo.Report
	start := time.Now()
	for pass := 1; ; pass++ {
		rep, wall, err := batchPass(r, b, st, calib)
		if err != nil {
			return err
		}
		if first == nil {
			first = rep
		} else {
			if !r.check(rep.PlanAccuracy == first.PlanAccuracy && rep.Results.Meter.Total() == first.Results.Meter.Total(),
				"pass %d differs from pass 1: accuracy %v vs %v, tokens %d vs %d", pass,
				rep.PlanAccuracy, first.PlanAccuracy, rep.Results.Meter.Total(), first.Results.Meter.Total()) {
				r.failed += len(st.w.Queries)
			}
		}
		walls = append(walls, wall.Seconds())
		rates = append(rates, float64(len(st.w.Queries))/wall.Seconds())
		elapsed := time.Since(start)
		if elapsed+elapsed/time.Duration(pass) > r.seconds {
			break
		}
	}
	r.logf("outcome %+v", r.meta["outcome"])
	r.meta["pass_walls_s"] = walls
	r.meta["pass_peak_rss_mb"] = r.rss
	r.set("peak_rss_mb", median(r.rss))

	q := float64(len(st.w.Queries))
	r.set("queries_per_s", median(rates))
	r.set("accuracy", first.PlanAccuracy)
	r.set("tokens_per_query", float64(first.Results.Meter.Total()+calib)/q)
	// Optimize hands every answer back when the pass returns, so a
	// query meets the batch deadline when its pass does.
	inSLO := share{}
	for _, w := range walls {
		inSLO.Base += q
		if w <= batchDeadline.Seconds() {
			inSLO.Num += q
		}
	}
	r.set("slo_attainment.peak", inSLO.Value())
	return nil
}

// calibrationTokens is what fitting the inadequacy measure costs the
// predictor for this seed, measured apart from any timed pass: the
// plan's metered tokens plus this must equal what the predictor
// metered.
func calibrationTokens(st *batchState, seed uint64) (int, error) {
	sim := newSim(st.g, seed)
	cfg := core.DefaultInadequacyConfig()
	cfg.Exec = core.ExecConfig{Workers: batchWorkers}
	if _, err := core.FitInadequacy(st.g, st.w.Labeled, sim, "paper", cfg); err != nil {
		return 0, fmt.Errorf("calibration reference: %w", err)
	}
	return sim.Meter().Total(), nil
}

// batchPass times one mqo.Optimize call and checks its outputs.
func batchPass(r *run, b batchSpec, st *batchState, calib int) (*mqo.Report, time.Duration, error) {
	sim := newSim(st.g, r.seed)
	dir := st.fillDir
	if !b.warm {
		var err error
		if dir, err = r.newDir("cold-"); err != nil {
			return nil, 0, err
		}
		defer os.RemoveAll(dir)
	}
	startPeakRSS()
	steal0, cpu0 := stealJiffies(), cpuTime()
	t0 := time.Now()
	rep, err := mqo.Optimize(st.w, method(), sim, b.options(dir))
	wall := time.Since(t0)
	// Steal time and CPU time tell a slow machine from a slow program.
	r.logf("pass: %.3fs, %.1f queries/s, cpu %.2fs, steal %dj", wall.Seconds(),
		float64(len(st.w.Queries))/wall.Seconds(), (cpuTime() - cpu0).Seconds(), stealJiffies()-steal0)
	r.rss = append(r.rss, peakRSSMB())
	n := len(st.w.Queries)
	r.attempted += n
	if err != nil && rep == nil {
		return nil, 0, fmt.Errorf("%s pass: %w", b.name, err)
	}
	ok := r.check(err == nil && rep.Coverage == 1, "%s pass: coverage %v, err %v", b.name, rep.Coverage, err)
	ok = checkBatchReport(r, b, st, rep, sim, calib) && ok
	if !ok {
		r.failed += n
	}
	return rep, wall, nil
}

// checkBatchReport applies the workload's correctness gates to one
// pass's report and the predictor that served it.
func checkBatchReport(r *run, b batchSpec, st *batchState, rep *mqo.Report, sim *llm.Sim, calib int) bool {
	ok := true
	metered := rep.Results.Meter.Total()
	if b.warm {
		ok = r.check(sim.Meter().Queries() == 0, "warm pass made %d predictor calls", sim.Meter().Queries()) && ok
		ok = r.check(maps.Equal(rep.Results.Pred, st.fill.Results.Pred), "warm predictions differ from the pass that filled the cache") && ok
	} else {
		want := len(rep.Plan.Queries) + rep.CalibrationQueries
		ok = r.check(sim.Meter().Queries() == want, "predictor calls %d, want %d plan + calibration", sim.Meter().Queries(), want) && ok
		ok = r.check(sim.Meter().Total() == metered+calib, "billed %d != metered %d + calibration %d", sim.Meter().Total(), metered, calib) && ok
	}
	got := recorded{Accuracy: rep.PlanAccuracy, Tokens: metered + calib, Rounds: len(rep.Rounds)}
	r.meta["outcome"] = got
	if want, found := recordedFor(b.name, r.seed); found {
		ok = r.check(got == want, "seed %d: got %+v, recorded %+v", r.seed, got, want) && ok
	}
	return ok
}

// tracedBatch is the per-layer run: untraced Optimize passes, then the
// same pipeline composed from its public parts with spans around
// every call, a registry on the existing Obs hooks, and replays of the
// pure functions the pass used.
func tracedBatch(r *run, b batchSpec, st *batchState, calib int) error {
	var untraced []float64
	var ref *mqo.Report
	for i := 0; i < tracedRepeats(b); i++ {
		rep, wall, err := batchPass(r, b, st, calib)
		if err != nil {
			return err
		}
		ref = rep
		untraced = append(untraced, wall.Seconds())
	}

	var tracedWalls []float64
	var last *composed
	for i := 0; i < tracedRepeats(b); i++ {
		c, err := composeBatch(r, b, st)
		if err != nil {
			return err
		}
		tracedWalls = append(tracedWalls, c.wall.Seconds())
		last = c
	}
	c := last
	r.attempted += len(c.plan.Queries)
	ok := r.check(maps.Equal(c.res.Pred, ref.Results.Pred) &&
		c.res.Meter.InputTokens() == ref.Results.Meter.InputTokens() &&
		c.res.Meter.OutputTokens() == ref.Results.Meter.OutputTokens() &&
		len(c.rounds) == len(ref.Rounds),
		"composed pipeline does not reproduce Optimize: tokens %d/%d vs %d/%d, rounds %d vs %d",
		c.res.Meter.InputTokens(), c.res.Meter.OutputTokens(),
		ref.Results.Meter.InputTokens(), ref.Results.Meter.OutputTokens(), len(c.rounds), len(ref.Rounds))
	if b.warm {
		ok = r.check(c.simCalls == 0 && c.stats.Misses == 0, "traced warm pass: %d predictor calls, %d cache misses", c.simCalls, c.stats.Misses) && ok
	} else {
		ok = r.check(c.simTokens == c.res.Meter.Total()+calib, "traced pass: billed %d != metered %d + calibration %d", c.simTokens, c.res.Meter.Total(), calib) && ok
		ok = r.check(int64(c.simCalls) == c.stats.Entries, "cache puts %d != predictor calls %d", c.stats.Entries, c.simCalls) && ok
	}
	if !ok {
		r.failed += len(c.plan.Queries)
	}

	tr := c.tr
	in := replayInput{
		ctx: st.w.Context(), ranked: method().Ranked(), sel: tr.sel, comp: prompt.Compressor{Level: b.compress},
		calls: tr.calls, ns: c.ns, warm: b.warm, cacheDir: st.fillDir, scratch: r.dir,
	}
	for v := range c.plan.Prune {
		in.pruned = append(in.pruned, v)
	}
	rp, err := replay(in)
	if err != nil {
		return err
	}
	if !r.check(rp.mismatched == 0, "%d replayed prompts do not byte-match what the predictor or cache saw", rp.mismatched) {
		r.failed++
	}
	tr.link(rp.nodeOf)
	rp.report(r)

	r.set("obs.overhead_share", median(tracedWalls)/median(untraced)-1)
	r.set("core.fit_s", sumDur(tr.find("core.FitInadequacy")))
	r.set("core.prune_plan_s", sumDur(tr.find("core.PrunePlan")))
	r.set("core.calibration_calls", float64(c.calibration))
	r.set("core.boost_rounds", float64(len(c.rounds)))
	plans := append(tr.find("core.BoostWith"), tr.find("core.ExecuteWith")...)
	idle := share{}
	for _, p := range plans {
		idle.Base += p.dur().Seconds()
		idle.Num += (p.dur() - tr.busy("Sim.Query", p.Start, p.End)).Seconds()
	}
	r.set("core.dispatch_idle_share", idle.Value())
	selects := tr.find("Method.Select")
	r.set("predictors.select_calls", float64(len(selects)))
	r.set("predictors.select_s", sumDur(selects))
	sims := tr.find("Sim.Query")
	r.set("llm.calls", float64(len(sims)))
	r.set("llm.sim_s", sumDur(sims))
	r.set("llm.injected_wait_s", 0)
	r.set("promptcache.hits", float64(c.stats.Hits))
	r.set("promptcache.misses", float64(c.stats.Misses))
	r.set("promptcache.puts", float64(c.stats.Entries-c.entriesBefore))
	r.set("promptcache.hit_share", share{Num: float64(c.stats.Hits), Base: float64(c.stats.Hits + c.stats.Misses)}.Value())
	ledgerStages(r, c.reg, "plain/", "boost/")
	r.set("batch.retries", c.reg.CounterValue("mqo_batch_retries_total"))
	zero(r, "pool.", "serve.", "bench.", "latency_", "max_rate_")
	r.meta["untraced_walls_s"] = untraced
	r.meta["traced_walls_s"] = tracedWalls
	r.meta["idle_share"] = idle
	return tr.write(traceFile(r), r.meta)
}

// tracedRepeats is how many untraced and traced passes the per-layer
// run makes: one for the slow cold pass, several for the fast warm one
// so the overhead share compares medians.
func tracedRepeats(b batchSpec) int {
	if b.warm {
		return 5
	}
	return 1
}

// composed is one traced pass of the pipeline.
type composed struct {
	tr            *tracer
	reg           *obs.Registry
	wall          time.Duration
	plan          core.Plan
	res           *core.Results
	rounds        []core.RoundTrace
	calibration   int
	ns            string
	stats         promptcache.Stats
	entriesBefore int64
	simCalls      int
	simTokens     int
}

// composeBatch runs what mqo.Optimize runs, call by call, so each
// public call gets its own span.
func composeBatch(r *run, b batchSpec, st *batchState) (*composed, error) {
	c := &composed{tr: newTracer(), reg: obs.NewRegistry()}
	c.reg.SetLedgerCapacity(4 * batchQueries)
	sim := newSim(st.g, r.seed)
	p := wrapPredictor(sim, c.tr, "Sim.Query", true)
	m := tracedMethod{Method: method(), t: c.tr}
	dir := st.fillDir
	if !b.warm {
		var err error
		if dir, err = r.newDir("cold-"); err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
	}
	runtime.GC()
	var err error
	t0 := time.Now()
	c.tr.within("Optimize", "pass", func() { err = c.pipeline(b, st, p, m, dir) })
	c.wall = time.Since(t0)
	c.simCalls = sim.Meter().Queries()
	c.simTokens = sim.Meter().Total()
	return c, err
}

func (c *composed) pipeline(b batchSpec, st *batchState, p llm.Predictor, m predictors.Method, dir string) error {
	ctx := st.w.Context()
	ctx.Obs = c.reg
	cache, err := promptcache.Open(dir, promptcache.Config{Obs: c.reg})
	if err != nil {
		return err
	}
	defer cache.Close()
	c.entriesBefore = cache.Stats().Entries
	ecfg := core.ExecConfig{Workers: batchWorkers, Compress: prompt.Compressor{Level: b.compress}, Disk: cache}
	c.ns = promptcache.NamespaceVersion(p, ecfg.Compress.TemplateVersion())
	ecfg.CacheNamespace = c.ns
	c.plan = core.Plan{Queries: st.w.Queries}
	if b.paper {
		cfg := core.DefaultInadequacyConfig()
		cfg.Exec = ecfg
		var iq *core.Inadequacy
		c.tr.within("core.FitInadequacy", "", func() {
			iq, err = core.FitInadequacy(st.g, st.w.Labeled, p, ctx.NodeType, cfg)
		})
		if err != nil {
			return err
		}
		c.calibration = iq.CalibrationQueries
		c.tr.within("core.PrunePlan", "", func() { c.plan = core.PrunePlan(iq, st.g, st.w.Queries, pruneTau) })
		c.tr.within("core.BoostWith", "", func() {
			c.res, c.rounds, err = core.BoostWith(ctx, m, p, c.plan, core.DefaultBoostConfig(), ecfg)
		})
	} else {
		c.tr.within("core.ExecuteWith", "", func() { c.res, err = core.ExecuteWith(ctx, m, p, c.plan, ecfg) })
	}
	c.stats = cache.Stats()
	return err
}

// ledgerStages sums the executor's billed ledger stages over the
// query ledgers whose names carry one of prefixes.
func ledgerStages(r *run, reg *obs.Registry, prefixes ...string) {
	sums := map[string]time.Duration{}
	for _, l := range reg.Ledgers() {
		for _, p := range prefixes {
			if strings.HasPrefix(l.Name, p) {
				for _, e := range l.Entries {
					if e.Billed {
						sums[e.Stage] += e.Wall
					}
				}
			}
		}
	}
	r.set("batch.queue_s", sums[obs.StageQueue].Seconds())
	r.set("batch.cache_s", sums[obs.StageCache].Seconds())
	r.set("batch.exec_s", sums[obs.StageExec].Seconds())
}

func sumDur(spans []span) float64 {
	var d time.Duration
	for _, s := range spans {
		d += s.dur()
	}
	return d.Seconds()
}

// zero reports 0 for every per-layer metric under the given prefixes:
// layers the workload never reaches.
func zero(r *run, prefixes ...string) {
	for _, d := range perLayer {
		for _, p := range prefixes {
			if strings.HasPrefix(d.name, p) {
				r.set(d.name, 0)
			}
		}
	}
}

func traceFile(r *run) string {
	return fmt.Sprintf("%s/trace-%s-seed%d.json", r.outDir, r.workload, r.seed)
}
