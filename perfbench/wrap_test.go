package main

import (
	"testing"

	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/prompt"
	"repro/internal/promptcache"
	"repro/internal/tag"
	"repro/mqo"
)

func TestWrappedPredictorKeepsCacheNamespace(t *testing.T) {
	g, err := mqo.GenerateDatasetScaled("cora", 1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	sim := newSim(g, 5)
	inj, err := llm.NewFaultInjector(sim, llm.FaultConfig{Seed: 5, MaxLatency: backendWait})
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	for _, inner := range []llm.Predictor{sim, inj} {
		w := wrapPredictor(inner, tr, "Query", false)
		if got, want := promptcache.Namespace(w), promptcache.Namespace(inner); got != want {
			t.Errorf("Namespace(wrapped %s) = %q, want %q", inner.Name(), got, want)
		}
		v := prompt.Compressor{Level: 1}.TemplateVersion()
		if got, want := promptcache.NamespaceVersion(w, v), promptcache.NamespaceVersion(inner, v); got != want {
			t.Errorf("NamespaceVersion(wrapped %s) = %q, want %q", inner.Name(), got, want)
		}
		_, innerCtx := inner.(llm.ContextPredictor)
		_, wrappedCtx := w.(llm.ContextPredictor)
		if innerCtx != wrappedCtx {
			t.Errorf("%s: ContextPredictor %v, wrapped %v", inner.Name(), innerCtx, wrappedCtx)
		}
	}
}

// TestReplayedPromptsMatchWhatThePredictorSaw runs the traced pipeline
// on a small graph and checks that rebuilding every prompt from the
// captured selections gives byte for byte the prompts the predictor
// answered, with and without compression and pruning.
func TestReplayedPromptsMatchWhatThePredictorSaw(t *testing.T) {
	g, err := mqo.GenerateDatasetScaled("cora", 2, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	w := mqo.NewWorkload(g, 20, 120, neighborsM, 2)
	w.IncludeAbstracts = true
	for _, c := range []struct {
		name     string
		compress int
		paper    bool
	}{{"plain", 0, false}, {"prune-boost-compress", 1, true}} {
		t.Run(c.name, func(t *testing.T) {
			tr := newTracer()
			sim := newSim(g, 2)
			p := wrapPredictor(sim, tr, "Sim.Query", true)
			m := tracedMethod{Method: method(), t: tr}
			ctx := w.Context()
			ecfg := core.ExecConfig{Workers: 2, Compress: prompt.Compressor{Level: c.compress}}
			plan := core.Plan{Queries: w.Queries}
			var calib int
			if c.paper {
				cfg := core.DefaultInadequacyConfig()
				cfg.Exec = ecfg
				iq, err := core.FitInadequacy(g, w.Labeled, p, ctx.NodeType, cfg)
				if err != nil {
					t.Fatal(err)
				}
				calib = iq.CalibrationQueries
				plan = core.PrunePlan(iq, g, w.Queries, 0.3)
				_, _, err = core.BoostWith(ctx, m, p, plan, core.DefaultBoostConfig(), ecfg)
				if err != nil {
					t.Fatal(err)
				}
			} else if _, err := core.ExecuteWith(ctx, m, p, plan, ecfg); err != nil {
				t.Fatal(err)
			}
			in := replayInput{ctx: w.Context(), ranked: method().Ranked(), sel: tr.sel, comp: ecfg.Compress, calls: tr.calls}
			for v := range plan.Prune {
				in.pruned = append(in.pruned, v)
			}
			if c.paper && len(in.pruned) == 0 {
				t.Fatal("the plan pruned nothing; the case does not cover pruned prompts")
			}
			rp, err := replay(in)
			if err != nil {
				t.Fatal(err)
			}
			if rp.mismatched != 0 {
				t.Errorf("%d replayed prompts differ from every prompt the predictor saw", rp.mismatched)
			}
			if len(rp.prompts) != len(w.Queries) || len(tr.calls) != len(w.Queries)+calib {
				t.Errorf("replayed %d prompts, captured %d calls, want %d and %d",
					len(rp.prompts), len(tr.calls), len(w.Queries), len(w.Queries)+calib)
			}
			if c.compress > 0 && rp.saved.Num == 0 {
				t.Error("compression replay saved nothing")
			}
			// Every predictor call joins the request of its node.
			tr.link(rp.nodeOf)
			for _, s := range tr.find("Sim.Query") {
				if s.Req == "" && s.node >= 0 {
					t.Fatalf("span %+v has a node but no request", s)
				}
			}
		})
	}
}

func TestLinkJoinsSpansToTheirRequest(t *testing.T) {
	tr := newTracer()
	// A request for node 7, a window that selects its neighbors and asks
	// an injector, which asks the simulator, all recorded off the
	// request's goroutine.
	req := span{ID: 1, Req: "peak/r0", Name: "ServeHTTP", Start: 0, End: 100, node: 7}
	sel := span{ID: 2, Parent: 9, Name: "Method.Select", Start: 10, End: 20, node: 7}
	inj := span{ID: 3, Parent: 9, Name: "FaultInjector.Query", Start: 30, End: 80, node: -1, prompt: 42}
	sim := span{ID: 4, Parent: 9, Name: "Sim.Query", Start: 40, End: 50, node: -1, prompt: 42}
	other := span{ID: 5, Parent: 9, Name: "Sim.Query", Start: 200, End: 210, node: -1, prompt: 43}
	tr.spans = []span{sim, other, inj, sel, req}
	tr.link(map[uint64]tag.NodeID{42: 7, 43: 8})
	got := map[int64]span{}
	for _, s := range tr.spans {
		got[s.ID] = s
	}
	for id, want := range map[int64]struct {
		parent int64
		req    string
	}{2: {1, "peak/r0"}, 3: {1, "peak/r0"}, 4: {3, "peak/r0"}, 5: {9, "node:8"}} {
		if s := got[id]; s.Parent != want.parent || s.Req != want.req {
			t.Errorf("span %d: parent %d req %q, want %d %q", id, s.Parent, s.Req, want.parent, want.req)
		}
	}
	lt := map[string]layerTime{}
	for _, l := range tr.layerTimes() {
		lt[l.Name] = l
	}
	if inj := lt["FaultInjector.Query"]; inj.Total != 50e-9 || inj.Self != 40e-9 {
		t.Errorf("injector total %v self %v, want 50ns and 40ns", inj.Total, inj.Self)
	}
	if req := lt["ServeHTTP"]; req.Self != 40e-9 {
		t.Errorf("request self %v, want 100ns less 10ns select and 50ns injector", req.Self)
	}
}

func TestCovered(t *testing.T) {
	if got := covered([][2]int64{{0, 10}, {5, 15}, {20, 30}, {25, 26}, {40, 40}}); got != 25 {
		t.Errorf("covered = %d, want 25", got)
	}
	if got := covered(nil); got != 0 {
		t.Errorf("covered(nil) = %d", got)
	}
}
