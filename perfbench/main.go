// Command perfbench is the repository's benchmark. It runs one named
// workload against the library's public functions, checks the outputs,
// and prints one JSON result line:
//
//	perfbench --workload batch-cold --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the line carries the end-to-end metrics, measured
// with every instrumentation hook off. With --trace 1 it carries the
// per-layer metrics from a separate traced pass, whose spans are also
// written under .bench_build/perfbench/. Run it from the repository
// root (run.sh builds it there); README.md in this directory lists the
// workloads, their parameters and what each metric should move.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// endToEnd and perLayer list every metric the benchmark reports, with
// its unit. A run prints all of one set: the end-to-end set untraced,
// the per-layer set traced, with 0 for a layer the workload never
// reaches.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"tokens_per_query", "tokens"},
	{"ok_share", "share"},
	{"peak_rss_mb", "MB"},
	{"queries_per_s", "1/s"},
	{"accuracy", "share"},
	{"slo_attainment.peak", "share"},
}

// The serve latencies and knee vary between runs of identical code by
// about as much as or more than the largest regression bound (0.25)
// the end-to-end set may carry (see README.md), so they are reported
// with the per-layer set, which carries none.
var perLayer = []metricDef{
	{"latency_p50_ms.nominal", "ms"},
	{"latency_p99_ms.nominal", "ms"},
	{"latency_p50_ms.peak", "ms"},
	{"latency_p99_ms.peak", "ms"},
	{"max_rate_in_slo_per_s", "1/s"},
	{"core.fit_s", "s"},
	{"core.calibration_calls", "count"},
	{"core.prune_plan_s", "s"},
	{"core.boost_rounds", "count"},
	{"core.dispatch_idle_share", "share"},
	{"predictors.select_calls", "count"},
	{"predictors.select_s", "s"},
	{"predictors.build_s", "s"},
	{"predictors.prompt_bytes_mean", "bytes"},
	{"prompt.compress_s", "s"},
	{"prompt.compress_saved_share", "share"},
	{"token.count_s", "s"},
	{"token.count_mb_per_s", "MB/s"},
	{"token.count_allocs_per_call", "count"},
	{"llm.calls", "count"},
	{"llm.sim_s", "s"},
	{"llm.injected_wait_s", "s"},
	{"llm.input_tokens", "tokens"},
	{"promptcache.hits", "count"},
	{"promptcache.misses", "count"},
	{"promptcache.puts", "count"},
	{"promptcache.hit_share", "share"},
	{"promptcache.key_s", "s"},
	{"promptcache.get_s", "s"},
	{"promptcache.put_s", "s"},
	{"batch.queue_s", "s"},
	{"batch.cache_s", "s"},
	{"batch.exec_s", "s"},
	{"batch.retries", "count"},
	{"pool.picks", "count"},
	{"pool.pick_imbalance", "share"},
	{"serve.queue_wait_ms_p50", "ms"},
	{"serve.queue_wait_ms_p99", "ms"},
	{"serve.entries_per_flush", "count"},
	{"serve.flushes", "count"},
	{"serve.queue_peak", "count"},
	{"serve.rejected", "count"},
	{"serve.coalesced_share.memory", "share"},
	{"serve.coalesced_share.window", "share"},
	{"serve.coalesced_share.inflight", "share"},
	{"obs.overhead_share", "share"},
	{"bench.gen_lag_p99_ms.nominal", "ms"},
	{"bench.gen_lag_p99_ms.peak", "ms"},
	{"bench.gen_lag_p99_ms.ramp", "ms"},
	{"bench.sent.nominal", "count"},
	{"bench.sent.peak", "count"},
	{"bench.sent.ramp", "count"},
	{"bench.ok.nominal", "count"},
	{"bench.ok.peak", "count"},
	{"bench.ok.ramp", "count"},
	{"bench.failed.nominal", "count"},
	{"bench.failed.peak", "count"},
	{"bench.failed.ramp", "count"},
}

type metricDef struct{ name, unit string }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// setupReps is how many times a run repeats its set-up; setup_s is the
// median, so one slow repetition does not move it.
const setupReps = 3

// run is one benchmark invocation's state and findings.
type run struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	dir      string // scratch space for caches, removed at exit
	outDir   string // where traced spans are written

	attempted, failed int
	gates             int       // failed correctness gates
	rss               []float64 // peak resident set of each timed pass or phase, MB
	values            map[string]float64
	meta              map[string]any
}

// maxGateLines bounds how many failed gates a run prints; a broken
// serve answer path fails every request, and the first few say why.
const maxGateLines = 20

// check records a correctness gate; a failed gate makes the run
// incorrect and is reported on standard error.
func (r *run) check(ok bool, format string, args ...any) bool {
	if !ok {
		r.gates++
		if r.gates <= maxGateLines {
			fmt.Fprintln(os.Stderr, "perfbench: gate failed:", fmt.Sprintf(format, args...))
		}
	}
	return ok
}

func (r *run) set(name string, v float64) { r.values[name] = v }

// newDir makes a fresh scratch directory under the run's directory.
func (r *run) newDir(prefix string) (string, error) {
	return os.MkdirTemp(r.dir, prefix)
}

func (r *run) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	workload := flag.String("workload", "", "workload: batch-cold, batch-warm or serve-zipf")
	seed := flag.Uint64("seed", 1, "seed all inputs derive from")
	seconds := flag.Int("seconds", 15, "how long the measured part of the run lasts")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	flag.Parse()

	// Load and program share one process; cap it at two processors so
	// runs on larger machines measure the same configuration.
	procs := min(runtime.NumCPU(), 2)
	runtime.GOMAXPROCS(procs)

	r := &run{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		values:   map[string]float64{},
		meta: map[string]any{
			"workload": *workload, "seed": *seed, "seconds": *seconds,
			"trace": *trace, "gomaxprocs": procs, "nproc": runtime.NumCPU(),
		},
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥1 and --trace 0 or 1")
		return 2
	}
	base := filepath.Join(".bench_build", "perfbench")
	if err := os.MkdirAll(base, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	r.outDir = base
	dir, err := os.MkdirTemp(base, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	r.dir = dir
	defer os.RemoveAll(dir)
	r.logf("workload=%s seed=%d seconds=%d trace=%d GOMAXPROCS=%d nproc=%d",
		r.workload, r.seed, *seconds, *trace, procs, runtime.NumCPU())

	switch r.workload {
	case batchCold.name:
		err = runBatch(r, batchCold)
	case batchWarm.name:
		err = runBatch(r, batchWarm)
	case serveZipf:
		err = runServe(r)
	default:
		err = fmt.Errorf("unknown workload %q (want batch-cold, batch-warm or serve-zipf)", r.workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if r.gates > maxGateLines {
		r.logf("%d more gates failed", r.gates-maxGateLines)
	}
	line, err := r.result()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(line)
	return 0
}

// result renders the final JSON line. It refuses to print a set with a
// metric missing, so a run can never silently drop one.
func (r *run) result() (string, error) {
	defs := endToEnd
	if r.trace {
		defs = perLayer
	} else {
		r.set("ok_share", share{Num: float64(r.attempted - r.failed), Base: float64(r.attempted)}.Value())
	}
	out := resultLine{
		Correct:   r.gates == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricValue{},
	}
	if r.attempted < 1 {
		return "", fmt.Errorf("run attempted nothing")
	}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", d.name)
		}
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	b, err := json.Marshal(out)
	return string(b), err
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// startPeakRSS collects garbage, hands freed memory back to the kernel
// and restarts its resident-set high-water mark, so the next peakRSSMB
// covers only what runs after it. Without the reset a run's peak would
// be set-up's, which varies with when the collector happened to run.
func startPeakRSS() {
	debug.FreeOSMemory()
	// Where the reset is refused the mark stays the lifetime peak: still
	// a peak, only a noisier one.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// timeSetup runs setup setupReps times, records the median as setup_s
// and returns the last repetition's state; release frees an earlier
// repetition's state before the next one starts.
func timeSetup[S any](r *run, setup func() (S, error), release func(S)) (S, error) {
	var st S
	var walls []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			release(st)
		}
		runtime.GC()
		t0 := time.Now()
		s, err := setup()
		if err != nil {
			return st, err
		}
		walls = append(walls, time.Since(t0).Seconds())
		st = s
		if r.trace {
			break // the traced run reports no set-up time
		}
	}
	r.set("setup_s", median(walls))
	r.meta["setup_s"] = walls
	return st, nil
}
