package main

import (
	"context"
	"encoding/json"
	"hash/fnv"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/llm"
	"repro/internal/predictors"
	"repro/internal/tag"
)

// span is one timed call into a layer's public function. Parent and Req
// are filled live where the caller is known (the benchmark's own
// composition) and by link afterwards where it is not (calls the
// program makes from its worker goroutines).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    string `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// node is the graph node the call concerns (-1 when unknown) and
	// prompt the hash of the prompt it carries (0 when none); both feed
	// link.
	node   tag.NodeID
	prompt uint64
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run writes them out. Untraced
// runs have none and wrap nothing.
type tracer struct {
	origin time.Time
	ids    atomic.Int64
	// stage is the span the benchmark's composition is inside; layer
	// calls made under it without a known request become its children.
	stage atomic.Int64

	mu    sync.Mutex
	spans []span
	// sel keeps each node's latest neighbor selection, the input replay
	// rebuilds its prompt from.
	sel map[tag.NodeID][]predictors.Selected
	// calls keeps each prompt a predictor answered, with its response.
	calls []capturedCall
}

type capturedCall struct {
	prompt string
	resp   llm.Response
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), sel: map[tag.NodeID][]predictors.Selected{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// open allocates a span ID and stamps its start.
func (t *tracer) open(name string, parent int64, req string) span {
	return span{ID: t.ids.Add(1), Parent: parent, Req: req, Name: name, Start: t.now(), node: -1}
}

// close stamps the end and keeps the span.
func (t *tracer) close(s span) span {
	s.End = t.now()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// within runs f as a stage span, a child of the current stage; req
// names its request, empty to inherit the parent's.
func (t *tracer) within(name, req string, f func()) {
	s := t.open(name, t.stage.Load(), req)
	prev := t.stage.Swap(s.ID)
	f()
	t.stage.Store(prev)
	t.close(s)
}

func promptHash(p string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(p))
	return h.Sum64()
}

// tracedMethod records a span around every Select and captures the
// selection for replay.
type tracedMethod struct {
	predictors.Method
	t *tracer
}

func (m tracedMethod) Select(ctx *predictors.Context, v tag.NodeID) []predictors.Selected {
	s := m.t.open("Method.Select", m.t.stage.Load(), "")
	sel := m.Method.Select(ctx, v)
	s.node = v
	s.End = m.t.now()
	m.t.mu.Lock()
	m.t.spans = append(m.t.spans, s)
	m.t.sel[v] = append([]predictors.Selected(nil), sel...)
	m.t.mu.Unlock()
	return sel
}

// tracedPredictor records a span around every Query. It forwards
// Identity, so the prompt-cache namespace of a wrapped predictor is the
// namespace of the predictor it wraps; otherwise a traced run would
// look up other keys and miss a warm cache.
type tracedPredictor struct {
	inner   llm.Predictor
	t       *tracer
	name    string
	capture bool
}

func (p *tracedPredictor) Name() string     { return p.inner.Name() }
func (p *tracedPredictor) Identity() string { return llm.IdentityOf(p.inner) }

func (p *tracedPredictor) Query(prompt string) (llm.Response, error) {
	s := p.t.open(p.name, p.t.stage.Load(), "")
	resp, err := p.inner.Query(prompt)
	p.done(s, prompt, resp, err)
	return resp, err
}

func (p *tracedPredictor) done(s span, prompt string, resp llm.Response, err error) {
	s.prompt = promptHash(prompt)
	s.End = p.t.now()
	p.t.mu.Lock()
	p.t.spans = append(p.t.spans, s)
	if p.capture && err == nil {
		p.t.calls = append(p.t.calls, capturedCall{prompt: prompt, resp: resp})
	}
	p.t.mu.Unlock()
}

// tracedCtxPredictor also forwards QueryContext, so wrapping a
// cancelable predictor keeps the executor on its context path.
type tracedCtxPredictor struct {
	*tracedPredictor
	cp llm.ContextPredictor
}

func (p *tracedCtxPredictor) QueryContext(ctx context.Context, prompt string) (llm.Response, error) {
	s := p.t.open(p.name, p.t.stage.Load(), "")
	resp, err := p.cp.QueryContext(ctx, prompt)
	p.done(s, prompt, resp, err)
	return resp, err
}

// wrapPredictor traces inner under the span name name; capture keeps
// every answered prompt for the tokenizer and cache replays.
func wrapPredictor(inner llm.Predictor, t *tracer, name string, capture bool) llm.Predictor {
	tp := &tracedPredictor{inner: inner, t: t, name: name, capture: capture}
	if cp, ok := inner.(llm.ContextPredictor); ok {
		return &tracedCtxPredictor{tracedPredictor: tp, cp: cp}
	}
	return tp
}

// link fills the parents and request IDs of spans recorded on worker
// goroutines, where the caller is not known live. nodeOf maps a prompt
// hash to the node it asks about (from replay). A predictor span inside
// another predictor span over the same prompt is its child; a span
// whose node is known joins the request span (a root carrying that
// node) whose interval covers it, or else request "node:<id>"; every
// other span shares its parent's request.
func (t *tracer) link(nodeOf map[uint64]tag.NodeID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	sort.Slice(t.spans, func(i, j int) bool { return t.spans[i].Start < t.spans[j].Start })
	covering := func(idx []int, s span) (int, bool) {
		for _, j := range idx {
			r := t.spans[j]
			if r.ID != s.ID && r.Start <= s.Start && s.End <= r.End {
				return j, true
			}
		}
		return 0, false
	}
	roots := map[tag.NodeID][]int{} // request spans by node
	outer := map[uint64][]int{}     // predictor spans by prompt
	inner := map[int]int{}          // predictor span -> enclosing one
	for i := range t.spans {
		s := &t.spans[i]
		if s.Req != "" && s.Parent == 0 && s.node >= 0 {
			roots[s.node] = append(roots[s.node], i)
		}
		if s.prompt == 0 {
			continue
		}
		if v, ok := nodeOf[s.prompt]; ok {
			s.node = v
		}
		if j, ok := covering(outer[s.prompt], *s); ok {
			inner[i] = j
			s.Parent = t.spans[j].ID
		}
		outer[s.prompt] = append(outer[s.prompt], i)
	}
	for i := range t.spans {
		s := &t.spans[i]
		if _, ok := inner[i]; ok || s.Req != "" || s.node < 0 {
			continue
		}
		if j, ok := covering(roots[s.node], *s); ok {
			s.Req, s.Parent = t.spans[j].Req, t.spans[j].ID
			continue
		}
		s.Req = "node:" + strconv.Itoa(int(s.node))
	}
	byID := make(map[int64]int, len(t.spans))
	for i, s := range t.spans {
		byID[s.ID] = i
	}
	// Parents start before their children, so one pass in start order
	// propagates requests down any depth.
	for i := range t.spans {
		s := &t.spans[i]
		if j, ok := byID[s.Parent]; ok && s.Req == "" {
			s.Req = t.spans[j].Req
		}
	}
}

// layerTime is a span name's total and self time: self is the part of
// its spans not covered by their children.
type layerTime struct {
	Name  string  `json:"name"`
	Count int     `json:"count"`
	Total float64 `json:"total_s"`
	Self  float64 `json:"self_s"`
}

func (t *tracer) layerTimes() []layerTime {
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	acc := map[string]*layerTime{}
	for _, s := range t.spans {
		lt := acc[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			acc[s.Name] = lt
		}
		lt.Count++
		lt.Total += s.dur().Seconds()
		var iv [][2]int64
		for _, c := range children[s.ID] {
			iv = append(iv, [2]int64{max(c.Start, s.Start), min(c.End, s.End)})
		}
		lt.Self += (s.dur() - time.Duration(covered(iv))).Seconds()
	}
	out := make([]layerTime, 0, len(acc))
	for _, lt := range acc {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered is the length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	first := true
	var start int64
	for _, x := range iv {
		if x[1] <= x[0] {
			continue
		}
		if first || x[0] > end {
			if !first {
				total += end - start
			}
			start, end, first = x[0], x[1], false
			continue
		}
		end = max(end, x[1])
	}
	if !first {
		total += end - start
	}
	return total
}

// busy is how much of [from, to) has at least one span named name in
// flight.
func (t *tracer) busy(name string, from, to int64) time.Duration {
	var iv [][2]int64
	for _, s := range t.spans {
		if s.Name == name && s.End > from && s.Start < to {
			iv = append(iv, [2]int64{max(s.Start, from), min(s.End, to)})
		}
	}
	return time.Duration(covered(iv))
}

func (t *tracer) find(name string) []span {
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// write dumps the spans and their per-layer times as JSON.
func (t *tracer) write(path string, meta map[string]any) error {
	doc := map[string]any{"meta": meta, "layers": t.layerTimes(), "spans": t.spans}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
