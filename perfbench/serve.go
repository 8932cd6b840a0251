package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/obs"
	"repro/internal/predictors"
	"repro/internal/serve"
	"repro/internal/tag"
	"repro/internal/xrand"
	"repro/mqo"
)

// serve-zipf parameters: an open-loop Poisson load from eight tenants
// asking about nodes drawn with Zipf(0.6) popularity over the whole
// graph, answered by an in-process serving tier over a backend stand-in
// that waits up to 4 ms per call.
const (
	serveZipf     = "serve-zipf"
	serveTenants  = 8
	zipfSkew      = 0.6
	serveReplicas = 2
	serveWorkers  = 4
	serveWindow   = 3 * time.Millisecond
	backendWait   = 4 * time.Millisecond
	// sloLimit is the latency limit a request must meet, from its
	// scheduled instant to its 200.
	sloLimit    = 50 * time.Millisecond
	nominalRate = 400.0
	peakRate    = 800.0
	// warmup opens every phase and ramp step; its requests are sent and
	// checked but left out of the phase's statistics.
	warmup     = 500 * time.Millisecond
	rampWarmup = 250 * time.Millisecond
	// phaseSamples is the fewest measured requests a phase is sized
	// for: p99 then has at least 12 samples beyond it.
	phaseSamples = 1200
)

// The ramp climbs from the peak rate in coarse steps until a step
// breaks the SLO, then bisects between the highest passing and the
// lowest failing rate; the refinement makes the reported rate move by
// less than a coarse step when capacity does.
const (
	rampStep    = 200.0
	rampMax     = 6000.0
	rampRefines = 3
)

// arrival is one scheduled request.
type arrival struct {
	at     time.Duration // offset from the phase start
	node   tag.NodeID
	tenant string
	body   []byte
}

// popularity ranks every node with a seeded shuffle and draws ranks
// with Zipf weights (rank+1)^-s.
type popularity struct {
	nodes []tag.NodeID
	cdf   []float64
}

func newPopularity(seed uint64, n int, skew float64) popularity {
	perm := xrand.New(seed).SplitString("perfbench/popularity").Perm(n)
	p := popularity{nodes: make([]tag.NodeID, n), cdf: make([]float64, n)}
	total := 0.0
	for k := range perm {
		p.nodes[k] = tag.NodeID(perm[k])
		total += math.Pow(float64(k+1), -skew)
		p.cdf[k] = total
	}
	for k := range p.cdf {
		p.cdf[k] /= total
	}
	return p
}

func (p popularity) draw(u float64) tag.NodeID {
	k := sort.SearchFloat64s(p.cdf, u)
	if k == len(p.cdf) {
		k--
	}
	return p.nodes[k]
}

// schedule is a phase's arrivals: a Poisson process at rate over dur,
// each request's node and tenant drawn from the same seeded stream. It
// is a pure function of its arguments.
func schedule(seed uint64, phase string, rate float64, dur time.Duration, pop popularity) []arrival {
	rng := xrand.New(seed).SplitString("perfbench/arrivals/" + phase)
	var out []arrival
	t := 0.0
	for {
		t += -math.Log(1-rng.Float64()) / rate
		at := time.Duration(t * float64(time.Second))
		if at >= dur {
			return out
		}
		node := pop.draw(rng.Float64())
		out = append(out, arrival{
			at:     at,
			node:   node,
			tenant: "tenant-" + strconv.Itoa(rng.Intn(serveTenants)),
			body:   []byte(`{"node":` + strconv.Itoa(int(node)) + `}`),
		})
	}
}

// fingerprint hashes a schedule's first n arrivals, the part no run
// length truncates.
func fingerprint(arr []arrival, n int) string {
	h := fnv.New64a()
	for i, a := range arr {
		if i == n {
			break
		}
		fmt.Fprintf(h, "%d/%d/%s;", a.at, a.node, a.tenant)
	}
	return strconv.FormatUint(h.Sum64(), 16)
}

// serveEnv is what set-up leaves for the phases.
type serveEnv struct {
	seed uint64
	g    *tag.Graph
	ctx  *predictors.Context
	sim  *llm.Sim
	pop  popularity
	// ref holds each node's reference answer, computed untimed after
	// the phase that needed it by a predictor of its own.
	refSim *llm.Sim
	ref    map[tag.NodeID]string
}

func setupServe(seed uint64) (*serveEnv, error) {
	g, err := mqo.GenerateDatasetScaled(dataset, seed, 1)
	if err != nil {
		return nil, err
	}
	w := mqo.NewWorkload(g, labeledPerClass, 0, neighborsM, seed)
	return &serveEnv{
		seed: seed, g: g, ctx: w.Context(), sim: newSim(g, seed), refSim: newSim(g, seed),
		pop: newPopularity(seed, g.NumNodes(), zipfSkew), ref: map[tag.NodeID]string{},
	}, nil
}

// reference is the answer the tier must give for v: the same
// selection and prompt the tier builds, asked of an identical predictor.
func (e *serveEnv) reference(v tag.NodeID) (string, error) {
	if c, ok := e.ref[v]; ok {
		return c, nil
	}
	m := method()
	resp, err := e.refSim.Query(predictors.BuildPrompt(e.ctx, v, m.Select(e.ctx, v), m.Ranked()))
	if err != nil {
		return "", err
	}
	e.ref[v] = resp.Category
	return resp.Category, nil
}

// outcome is one request's fate.
type outcome struct {
	status     int
	body       []byte
	retryAfter string
	lat        time.Duration // from its scheduled instant
	lag        time.Duration // how late the generator sent it
}

// depthSample is the admission queue's depth at an offset into the
// phase.
type depthSample struct {
	at    time.Duration
	depth float64
}

// phase is one load level's measurements.
type phase struct {
	name           string
	rate           float64
	warm, measure  time.Duration
	arrivals       []arrival
	out            []outcome
	measured       int // index of the first request past warm-up
	wall           time.Duration
	cpu            time.Duration
	rss            float64 // peak resident set, MB
	steal          int     // steal time during the phase, jiffies
	tokens         int     // predictor-metered, warm-up included
	depth          []depthSample
	span           span
	queuePeak      int
	sent, ok, shed int // measured requests
	failed         int
	correct        int // measured answers equal to the true label
	rejected       int // 429s, warm-up included
	lat, lag       []float64
	inSLO          share
	queueEarlyLate [2]float64
}

// tier builds one fresh serving tier; every phase gets its own, so no
// phase inherits another's answer memory.
func (e *serveEnv) tier(tr *tracer, reg *obs.Registry) (*serve.Server, error) {
	var backend llm.Predictor = e.sim
	if tr != nil {
		backend = wrapPredictor(e.sim, tr, "Sim.Query", true)
	}
	inj, err := llm.NewFaultInjector(backend, llm.FaultConfig{Seed: e.seed, MaxLatency: backendWait})
	if err != nil {
		return nil, err
	}
	var p llm.Predictor = inj
	ctx := *e.ctx
	var m predictors.Method = method()
	cfg := serve.Config{
		Window: serveWindow,
		Exec:   core.ExecConfig{Workers: serveWorkers, ReplicaCount: serveReplicas},
	}
	if tr != nil {
		p = wrapPredictor(inj, tr, "FaultInjector.Query", false)
		m = tracedMethod{Method: m, t: tr}
		ctx.Obs, cfg.Obs = reg, reg
	}
	return serve.New(&ctx, m, p, cfg)
}

// runPhase drives one phase open-loop: every request is sent at its
// scheduled instant on its own goroutine, whatever the earlier ones
// are doing, and is timed from that instant.
func (e *serveEnv) runPhase(name string, rate float64, warm, measure time.Duration, tr *tracer, reg *obs.Registry) (*phase, error) {
	ph := &phase{name: name, rate: rate, warm: warm, measure: measure,
		arrivals: schedule(e.seed, name, rate, warm+measure, e.pop)}
	ph.measured = sort.Search(len(ph.arrivals), func(i int) bool { return ph.arrivals[i].at >= warm })
	ph.out = make([]outcome, len(ph.arrivals))
	srv, err := e.tier(tr, reg)
	if err != nil {
		return nil, err
	}
	h := serve.Handler(srv)
	startPeakRSS()
	steal0 := stealJiffies()
	tokens0 := e.sim.Meter().Total()
	cpu0 := cpuTime()
	if tr != nil {
		ph.span = tr.open("phase."+name, 0, name)
		tr.stage.Store(ph.span.ID)
	}
	start := time.Now()

	stop := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case now := <-tick.C:
				ph.depth = append(ph.depth, depthSample{at: now.Sub(start), depth: float64(srv.QueueDepth())})
			}
		}
	}()

	var wg sync.WaitGroup
	for i, a := range ph.arrivals {
		due := start.Add(a.at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		lag := time.Since(due)
		wg.Add(1)
		go func(i int, a arrival, due time.Time, lag time.Duration) {
			defer wg.Done()
			req := httptest.NewRequest(http.MethodPost, serve.QueryPath, bytes.NewReader(a.body))
			req.Header.Set("X-Tenant", a.tenant)
			rec := httptest.NewRecorder()
			var s span
			if tr != nil {
				s = tr.open("ServeHTTP", 0, name+"/r"+strconv.Itoa(i))
				s.node = a.node
			}
			h.ServeHTTP(rec, req)
			lat := time.Since(due)
			if tr != nil {
				tr.close(s)
			}
			ph.out[i] = outcome{status: rec.Code, body: rec.Body.Bytes(),
				retryAfter: rec.Header().Get("Retry-After"), lat: lat, lag: lag}
		}(i, a, due, lag)
	}
	wg.Wait()
	ph.wall = time.Since(start)
	close(stop)
	sampler.Wait()
	if tr != nil {
		tr.stage.Store(0)
		ph.span = tr.close(ph.span)
	}
	ph.rss = peakRSSMB()
	ph.steal = stealJiffies() - steal0
	ph.queuePeak = srv.QueuePeak()
	srv.Close()
	ph.cpu = cpuTime() - cpu0
	ph.tokens = e.sim.Meter().Total() - tokens0
	return ph, nil
}

// check decodes and verifies every response and computes the phase's
// statistics. shedOK says a 429 carrying Retry-After is an expected
// answer (a ramp step past capacity) rather than a failure; a request
// shed or failed counts as missing every latency limit.
func (e *serveEnv) check(r *run, ph *phase, shedOK bool) error {
	ph.inSLO.Base = float64(len(ph.arrivals) - ph.measured)
	for i, o := range ph.out {
		a := ph.arrivals[i]
		measured := i >= ph.measured
		good, shed := false, false
		switch o.status {
		case http.StatusOK:
			var qr serve.QueryResponse
			if err := strictDecode(o.body, &qr); err != nil {
				r.check(false, "%s request %d: %v", ph.name, i, err)
				break
			}
			want, err := e.reference(a.node)
			if err != nil {
				return err
			}
			good = r.check(qr.Node == int(a.node) && qr.Tenant == a.tenant && qr.Category == want,
				"%s request %d: got node %d tenant %q category %q, want %d %q %q",
				ph.name, i, qr.Node, qr.Tenant, qr.Category, a.node, a.tenant, want)
			if good && measured && qr.Category == e.g.Classes[e.g.Nodes[a.node].Label] {
				ph.correct++
			}
		case http.StatusTooManyRequests:
			ph.rejected++
			ra, err := strconv.Atoi(o.retryAfter)
			hinted := r.check(err == nil && ra >= 1, "%s request %d: 429 without a valid Retry-After (%q)", ph.name, i, o.retryAfter)
			shed = hinted && shedOK
			r.check(shedOK, "%s request %d: rejected with 429 below capacity", ph.name, i)
		default:
			r.check(false, "%s request %d: status %d: %s", ph.name, i, o.status, bytes.TrimSpace(o.body))
		}
		r.attempted++
		if !good && !shed {
			r.failed++
		}
		ph.lag = append(ph.lag, ms(o.lag))
		if !measured {
			continue
		}
		ph.sent++
		switch {
		case good:
			ph.ok++
			ph.lat = append(ph.lat, ms(o.lat))
			if o.lat <= sloLimit {
				ph.inSLO.Num++
			}
		case shed:
			ph.shed++
			ph.lat = append(ph.lat, math.Inf(1))
		default:
			ph.failed++
			ph.lat = append(ph.lat, math.Inf(1))
		}
	}
	var early, late []float64
	for _, s := range ph.depth {
		switch rel := s.at - ph.warm; {
		case rel < 0:
		case rel < ph.measure/4:
			early = append(early, s.depth)
		case rel >= ph.measure*3/4 && rel < ph.measure:
			late = append(late, s.depth)
		}
	}
	ph.queueEarlyLate = [2]float64{mean(early), mean(late)}
	return nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// strictDecode decodes exactly one JSON value with no unknown fields
// and nothing after it.
func strictDecode(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decoding %q: %w", b, err)
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return fmt.Errorf("trailing data after the JSON body %q", b)
	}
	return nil
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// phaseLength sizes the measured part of a phase: frac of the run less
// the warm-up, never fewer than phaseSamples requests at rate. Nominal
// gets 55% of the run and peak 45%; the traced run's ramp takes 40%
// more.
func phaseLength(r *run, rate, frac float64, warm time.Duration) time.Duration {
	d := time.Duration(frac*float64(r.seconds)) - warm
	if need := time.Duration(phaseSamples / rate * float64(time.Second)); d < need {
		d = need
	}
	return d
}

func runServe(r *run) error {
	env, err := timeSetup(r, func() (*serveEnv, error) { return setupServe(r.seed) }, func(*serveEnv) {})
	if err != nil {
		return err
	}
	r.meta["params"] = map[string]any{
		"dataset": dataset, "scale": 1, "nodes": env.g.NumNodes(), "method": method().Name(),
		"m": neighborsM, "labeled_per_class": labeledPerClass, "abstracts": false,
		"tenants": serveTenants, "zipf": zipfSkew, "replicas": serveReplicas, "routing": "p2c",
		"workers": serveWorkers, "window_ms": ms(serveWindow), "backend_max_wait_ms": ms(backendWait),
		"slo_ms": ms(sloLimit), "nominal_rate": nominalRate, "peak_rate": peakRate,
		"ramp_step": rampStep, "ramp_refines": rampRefines,
	}
	fp := fingerprint(schedule(r.seed, "nominal", nominalRate, 10*time.Second, env.pop), 1000) + "/" +
		fingerprint(schedule(r.seed, "peak", peakRate, 10*time.Second, env.pop), 1000)
	r.meta["schedule_fingerprint"] = fp
	r.logf("schedule fingerprint %s", fp)
	if want, ok := recordedFor(serveZipf, r.seed); ok {
		if !r.check(want.Schedule == fp, "seed %d: schedule fingerprint %s, recorded %s", r.seed, fp, want.Schedule) {
			r.failed++
		}
	}

	untraced, err := servePhases(r, env, nil, nil, r.trace)
	if err != nil {
		return err
	}
	if !r.trace {
		return reportServe(r, untraced)
	}
	tr := newTracer()
	reg := obs.NewRegistry()
	reg.SetLedgerCapacity(1 << 17)
	traced, err := servePhases(r, env, tr, reg, false)
	if err != nil {
		return err
	}
	return reportServeLayers(r, env, untraced, traced, tr, reg)
}

// servePhases runs nominal, peak and, with ramp, the stepped ramp.
func servePhases(r *run, env *serveEnv, tr *tracer, reg *obs.Registry, ramp bool) ([]*phase, error) {
	var out []*phase
	for _, p := range []struct {
		name string
		rate float64
		frac float64
	}{{"nominal", nominalRate, 0.55}, {"peak", peakRate, 0.45}} {
		ph, err := env.runPhase(p.name, p.rate, warmup, phaseLength(r, p.rate, p.frac, warmup), tr, reg)
		if err != nil {
			return nil, err
		}
		if err := env.check(r, ph, false); err != nil {
			return nil, err
		}
		out = append(out, ph)
		r.logf("%s: %s", ph.name, ph.summary())
	}
	if !ramp {
		return out, nil
	}
	budget := time.Duration(0.4 * float64(r.seconds))
	var spent time.Duration
	probe := func(rate float64) (bool, error) {
		measure := time.Duration(phaseSamples / rate * float64(time.Second))
		ph, err := env.runPhase("ramp-"+strconv.Itoa(int(rate)), rate, rampWarmup, measure, tr, reg)
		if err != nil {
			return false, err
		}
		if err := env.check(r, ph, true); err != nil {
			return false, err
		}
		out = append(out, ph)
		spent += ph.wall
		r.logf("%s: %s", ph.name, ph.summary())
		return ph.step().passes(), nil
	}
	lo, hi := 0.0, 0.0
	for rate := peakRate; rate <= rampMax && spent <= budget; rate += rampStep {
		ok, err := probe(rate)
		if err != nil {
			return nil, err
		}
		if !ok {
			hi = rate
			break
		}
		lo = rate
	}
	for i := 0; i < rampRefines && hi > 0; i++ {
		mid := math.Round((lo + hi) / 2)
		ok, err := probe(mid)
		if err != nil {
			return nil, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return out, nil
}

func (ph *phase) step() stepResult {
	return stepResult{Rate: ph.rate, Sent: ph.sent, InSLO: ph.inSLO, Rejected: ph.rejected,
		QueueEarly: ph.queueEarlyLate[0], QueueLate: ph.queueEarlyLate[1]}
}

func (ph *phase) summary() string {
	p50, _ := chunkedQuantile(ph.lat, 0.5)
	p99, _ := chunkedQuantile(ph.lat, 0.99)
	lag, _ := quantile(ph.lag, 0.99)
	return fmt.Sprintf("steal %dj sent %d ok %d shed %d failed %d p50 %.2fms p99 %.2fms in-slo %s queue %.1f→%.1f peak %d lag p99 %.2fms cpu %.2fs rss %.0fMB",
		ph.steal, ph.sent, ph.ok, ph.shed, ph.failed, p50, p99, ph.inSLO, ph.queueEarlyLate[0], ph.queueEarlyLate[1],
		ph.queuePeak, lag, ph.cpu.Seconds(), ph.rss)
}

func reportServe(r *run, phases []*phase) error {
	nominal, peak := phases[0], phases[1]
	r.set("slo_attainment.peak", peak.inSLO.Value())
	for _, ph := range phases {
		r.rss = append(r.rss, ph.rss)
	}
	r.set("peak_rss_mb", median(r.rss))
	sent := len(nominal.arrivals) + len(peak.arrivals)
	r.set("tokens_per_query", float64(nominal.tokens+peak.tokens)/float64(sent))
	r.set("queries_per_s", float64(nominal.ok+peak.ok)/(nominal.measure+peak.measure).Seconds())
	r.set("accuracy", share{Num: float64(nominal.correct + peak.correct), Base: float64(nominal.sent + peak.sent)}.Value())
	return nil
}

// reportLoadLevels sets the serve figures too noisy to bound: latency
// at the nominal and peak rates and the ramp's highest rate in SLO, all
// from untraced phases.
func reportLoadLevels(r *run, phases []*phase) error {
	for _, m := range []struct {
		name string
		ph   *phase
		q    float64
	}{
		{"latency_p50_ms.nominal", phases[0], 0.5},
		{"latency_p99_ms.nominal", phases[0], 0.99},
		{"latency_p50_ms.peak", phases[1], 0.5},
		{"latency_p99_ms.peak", phases[1], 0.99},
	} {
		v, err := chunkedQuantile(m.ph.lat, m.q)
		if err != nil {
			return fmt.Errorf("%s: %w", m.name, err)
		}
		r.set(m.name, v)
	}
	var steps []stepResult
	for _, ph := range phases[2:] {
		steps = append(steps, ph.step())
	}
	r.meta["ramp"] = steps
	r.set("max_rate_in_slo_per_s", maxRateInSLO(steps))
	return nil
}

// reportServeLayers sets the per-layer metrics from the traced nominal
// and peak phases, and the harness's own validity figures from the
// untraced phases.
func reportServeLayers(r *run, env *serveEnv, untraced, traced []*phase, tr *tracer, reg *obs.Registry) error {
	in := replayInput{ctx: env.ctx, ranked: method().Ranked(), sel: tr.sel, calls: tr.calls}
	rp, err := replay(in)
	if err != nil {
		return err
	}
	if !r.check(rp.mismatched == 0, "%d replayed prompts do not byte-match what the predictor saw", rp.mismatched) {
		r.failed++
	}
	tr.link(rp.nodeOf)
	rp.report(r)
	if err := reportLoadLevels(r, untraced); err != nil {
		return err
	}
	zero(r, "core.fit_s", "core.calibration_calls", "core.prune_plan_s", "core.boost_rounds", "promptcache.")

	var cpuU, cpuT time.Duration
	var sentU, sentT int
	idle := share{}
	requests := 0
	queuePeak, rejected := 0, 0
	for i, ph := range traced {
		cpuT += ph.cpu
		sentT += len(ph.arrivals)
		cpuU += untraced[i].cpu
		sentU += len(untraced[i].arrivals)
		idle.Base += ph.span.dur().Seconds()
		idle.Num += (ph.span.dur() - tr.busy("FaultInjector.Query", ph.span.Start, ph.span.End)).Seconds()
		requests += len(ph.arrivals)
		queuePeak = max(queuePeak, ph.queuePeak)
		rejected += ph.rejected
	}
	perU := cpuU.Seconds() / float64(sentU)
	r.set("obs.overhead_share", cpuT.Seconds()/float64(sentT)/perU-1)
	r.set("core.dispatch_idle_share", idle.Value())
	r.meta["idle_share"] = idle

	selects := tr.find("Method.Select")
	r.set("predictors.select_calls", float64(len(selects)))
	r.set("predictors.select_s", sumDur(selects))
	sims := tr.find("Sim.Query")
	r.set("llm.calls", float64(len(sims)))
	r.set("llm.sim_s", sumDur(sims))
	for _, lt := range tr.layerTimes() {
		if lt.Name == "FaultInjector.Query" {
			r.set("llm.injected_wait_s", lt.Self)
		}
	}
	if _, ok := r.values["llm.injected_wait_s"]; !ok {
		r.set("llm.injected_wait_s", 0)
	}
	ledgerStages(r, reg, "plain/")
	r.set("batch.retries", reg.CounterValue("mqo_batch_retries_total"))

	var picks []float64
	entries := 0
	for _, m := range reg.Snapshot() {
		if m.Name == "mqo_pool_picks_total" {
			picks = append(picks, m.Value)
		}
	}
	total := 0.0
	for _, p := range picks {
		total += p
	}
	r.set("pool.picks", total)
	imbalance := 0.0
	if len(picks) > 0 && total > 0 {
		hi := 0.0
		for _, p := range picks {
			hi = max(hi, p)
		}
		imbalance = hi/(total/float64(serveReplicas)) - 1
	}
	r.set("pool.pick_imbalance", imbalance)

	var waits []float64
	for _, l := range reg.Ledgers() {
		switch {
		case strings.HasPrefix(l.Name, "serve/"):
			var w time.Duration
			for _, e := range l.Entries {
				if e.Stage == obs.StageQueue {
					w += e.Wall
				}
			}
			waits = append(waits, ms(w))
		case strings.HasPrefix(l.Name, "plain/"):
			entries++
		}
	}
	p50, err := quantile(waits, 0.5)
	if err != nil {
		return fmt.Errorf("serve queue wait: %w", err)
	}
	p99, err := quantile(waits, 0.99)
	if err != nil {
		return fmt.Errorf("serve queue wait: %w", err)
	}
	r.set("serve.queue_wait_ms_p50", p50)
	r.set("serve.queue_wait_ms_p99", p99)
	flushes := reg.CounterValue("mqo_serve_window_flushes_total")
	r.set("serve.flushes", flushes)
	r.set("serve.entries_per_flush", share{Num: float64(entries), Base: flushes}.Value())
	r.set("serve.queue_peak", float64(queuePeak))
	r.set("serve.rejected", float64(rejected))
	for _, tier := range []string{"memory", "window", "inflight"} {
		r.set("serve.coalesced_share."+tier, share{Num: reg.CounterValue("mqo_serve_coalesced_total", "tier", tier), Base: float64(requests)}.Value())
	}

	// Harness validity comes from the untraced phases, the ones the
	// end-to-end figures are read from.
	groups := map[string][]*phase{}
	for _, ph := range untraced {
		key := ph.name
		if strings.HasPrefix(key, "ramp-") {
			key = "ramp"
		}
		groups[key] = append(groups[key], ph)
	}
	for _, key := range []string{"nominal", "peak", "ramp"} {
		var lag []float64
		sent, ok, failed := 0, 0, 0
		for _, ph := range groups[key] {
			lag = append(lag, ph.lag...)
			sent += ph.sent
			ok += ph.ok
			failed += ph.failed
		}
		v, err := quantile(lag, 0.99)
		if err != nil {
			return fmt.Errorf("%s generator lag: %w", key, err)
		}
		r.set("bench.gen_lag_p99_ms."+key, v)
		r.set("bench.sent."+key, float64(sent))
		r.set("bench.ok."+key, float64(ok))
		r.set("bench.failed."+key, float64(failed))
	}
	return tr.write(traceFile(r), r.meta)
}

// stealJiffies is the machine's cumulative steal time: how long its
// processors ran other guests while this one wanted them. The phase
// summary reports it so a slow phase can be told from a slow program.
func stealJiffies() int {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	f := strings.Fields(strings.SplitN(string(b), "\n", 2)[0])
	if len(f) < 9 {
		return 0
	}
	v, _ := strconv.Atoi(f[8])
	return v
}
