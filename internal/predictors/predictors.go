// Package predictors implements the "LLMs as predictors" benchmark
// methods the paper optimizes (Table I and Section VI-A2): vanilla
// zero-shot, k-hop random neighbor selection, and SNS similarity-based
// neighbor selection.
//
// Methods differ only in how they select up to M neighbors for the
// prompt; prompt construction, LLM querying and token accounting are
// shared. Neighbor labels come from a Known map holding the true labels
// of V_L plus any pseudo-labels added by query boosting, which is
// exactly how the paper's strategies plug into the methods without
// modifying them.
package predictors

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/encode"
	"repro/internal/obs"
	"repro/internal/prompt"
	"repro/internal/tag"
	"repro/internal/xrand"
)

// Selected is one chosen neighbor: its node and the label the method
// may include in the prompt ("" when unknown).
type Selected struct {
	ID    tag.NodeID
	Label string
}

// CountLabeled returns |N_i^L|: how many selected neighbors carry labels.
func CountLabeled(sel []Selected) int {
	n := 0
	for _, s := range sel {
		if s.Label != "" {
			n++
		}
	}
	return n
}

// LabelConflicts returns LC_i: the number of distinct label values
// among the labeled selected neighbors (Eq. 11). A selection holds at
// most M entries, so it counts each label at its first occurrence with
// a scan of the entries before it rather than allocating a set.
func LabelConflicts(sel []Selected) int {
	n := 0
	for i, s := range sel {
		if s.Label != "" && !slices.ContainsFunc(sel[:i], func(t Selected) bool { return t.Label == s.Label }) {
			n++
		}
	}
	return n
}

// Context carries everything a method needs to select neighbors and
// build prompts for one dataset.
type Context struct {
	Graph *tag.Graph
	// Known maps nodes to their visible labels: the true labels of the
	// labeled set plus pseudo-labels appended by query boosting.
	Known map[tag.NodeID]string
	// M caps the neighbors per prompt.
	M int
	// Seed drives per-node neighbor sampling. Sampling is keyed by
	// (Seed, node), so the same node draws the same neighbors regardless
	// of execution order — strategies stay comparable pair-by-pair.
	Seed uint64
	// IncludeAbstracts switches neighbor entries from title-only (the
	// paper's token-saving default) to title+abstract.
	IncludeAbstracts bool
	// NodeType / EdgeRelation label the prompt ("paper"/"citation" by
	// default).
	NodeType     string
	EdgeRelation string

	// Obs receives metrics and spans from plan execution over this
	// context; nil routes to the process-default recorder (a no-op
	// unless obs.SetDefault installed a registry).
	Obs obs.Recorder

	simMu sync.Mutex  // guards sim
	sim   *Similarity // lazily built by SNS
}

// nodeRNG returns the deterministic stream for sampling around node v.
func (ctx *Context) nodeRNG(v tag.NodeID) *xrand.RNG {
	return xrand.New(ctx.Seed).SplitString("select").Split(uint64(v))
}

// Method selects prompt neighbors for a query node.
//
// Select may be called concurrently on a Context whose Known is not
// being written: plan execution fans selection out across its workers
// between boosting rounds. A method must therefore keep any state it
// builds lazily safe for concurrent use.
type Method interface {
	Name() string
	// Ranked reports whether the method orders neighbors most-related
	// first (SNS), which changes the prompt phrasing.
	Ranked() bool
	Select(ctx *Context, v tag.NodeID) []Selected
}

// label returns the visible label of u, or "".
func (ctx *Context) label(u tag.NodeID) string { return ctx.Known[u] }

// Vanilla is the zero-shot method: no neighbor text at all.
type Vanilla struct{}

// Name implements Method.
func (Vanilla) Name() string { return "vanilla zero-shot" }

// Ranked implements Method.
func (Vanilla) Ranked() bool { return false }

// Select implements Method; it always returns nil.
func (Vanilla) Select(*Context, tag.NodeID) []Selected { return nil }

// KHopRandom selects up to M neighbors within K hops, preferring
// labeled neighbors and filling the remainder uniformly from unlabeled
// ones, as in the paper's "k-hop random" baseline.
type KHopRandom struct {
	K int
}

// Name implements Method.
func (m KHopRandom) Name() string { return fmt.Sprintf("%d-hop random", m.K) }

// Ranked implements Method.
func (KHopRandom) Ranked() bool { return false }

// Select implements Method.
func (m KHopRandom) Select(ctx *Context, v tag.NodeID) []Selected {
	if m.K <= 0 {
		panic("predictors: KHopRandom needs K >= 1")
	}
	hood, _ := ctx.Graph.KHop(v, m.K)
	var labeled, unlabeled []tag.NodeID
	for _, u := range hood {
		if ctx.label(u) != "" {
			labeled = append(labeled, u)
		} else {
			unlabeled = append(unlabeled, u)
		}
	}
	rng := ctx.nodeRNG(v)
	out := make([]Selected, 0, ctx.M)
	for _, i := range rng.Sample(len(labeled), ctx.M) {
		out = append(out, Selected{ID: labeled[i], Label: ctx.label(labeled[i])})
	}
	if remaining := ctx.M - len(out); remaining > 0 {
		for _, i := range rng.Sample(len(unlabeled), remaining) {
			out = append(out, Selected{ID: unlabeled[i]})
		}
	}
	return out
}

// SNS is the similarity-based neighbor selection method [27]: it
// explores outward hop by hop (up to five hops) until it has gathered
// at least M labeled neighbors, ranks them by text similarity to the
// query node, and keeps the top M, most related first.
type SNS struct{}

// Name implements Method.
func (SNS) Name() string { return "SNS" }

// Ranked implements Method.
func (SNS) Ranked() bool { return true }

// maxSNSHops is the exploration cap from the SNS paper.
const maxSNSHops = 5

// Select implements Method.
func (SNS) Select(ctx *Context, v tag.NodeID) []Selected {
	var labeled []tag.NodeID
	for k := 1; k <= maxSNSHops; k++ {
		hood, _ := ctx.Graph.KHop(v, k)
		labeled = labeled[:0]
		for _, u := range hood {
			if ctx.label(u) != "" {
				labeled = append(labeled, u)
			}
		}
		if len(labeled) >= ctx.M {
			break
		}
	}
	if len(labeled) == 0 {
		return nil
	}
	sim := ctx.similarity()
	type scored struct {
		id tag.NodeID
		s  float64
	}
	ss := make([]scored, len(labeled))
	for i, u := range labeled {
		ss[i] = scored{id: u, s: sim.Score(v, u)}
	}
	sort.Slice(ss, func(i, j int) bool {
		if ss[i].s != ss[j].s {
			return ss[i].s > ss[j].s
		}
		return ss[i].id < ss[j].id
	})
	n := ctx.M
	if n > len(ss) {
		n = len(ss)
	}
	out := make([]Selected, 0, n)
	for _, sc := range ss[:n] {
		out = append(out, Selected{ID: sc.id, Label: ctx.label(sc.id)})
	}
	return out
}

// Similarity caches TF-IDF sparse embeddings of all node texts and
// scores node pairs by cosine — the offline SimCSE substitute.
type Similarity struct {
	vecs []map[int]float64
}

// NewSimilarity precomputes embeddings for every node of g.
func NewSimilarity(g *tag.Graph) *Similarity {
	corpus := make([]string, g.NumNodes())
	for i := range corpus {
		corpus[i] = g.Text(tag.NodeID(i))
	}
	enc := encode.NewTFIDF(corpus, 0)
	s := &Similarity{vecs: make([]map[int]float64, len(corpus))}
	for i, text := range corpus {
		s.vecs[i] = enc.EncodeSparse(text)
	}
	return s
}

// NewSimilarityDense builds an index from precomputed dense embeddings,
// one per node — the hook for alternative text encoders (skip-gram,
// hashing) to back SNS instead of the TF-IDF default.
func NewSimilarityDense(vecs [][]float64) *Similarity {
	s := &Similarity{vecs: make([]map[int]float64, len(vecs))}
	for i, v := range vecs {
		sparse := make(map[int]float64)
		for d, x := range v {
			if x != 0 {
				sparse[d] = x
			}
		}
		s.vecs[i] = sparse
	}
	return s
}

// Score returns the similarity of nodes a and b.
func (s *Similarity) Score(a, b tag.NodeID) float64 {
	return encode.CosineSparse(s.vecs[a], s.vecs[b])
}

// similarity lazily builds (and caches) the dataset's similarity index.
// Concurrent first callers wait for one build rather than racing to
// each make their own.
func (ctx *Context) similarity() *Similarity {
	ctx.simMu.Lock()
	defer ctx.simMu.Unlock()
	if ctx.sim == nil {
		ctx.sim = NewSimilarity(ctx.Graph)
	}
	return ctx.sim
}

// SetSimilarity installs a prebuilt similarity index (useful when
// several contexts share one dataset).
func (ctx *Context) SetSimilarity(s *Similarity) {
	ctx.simMu.Lock()
	ctx.sim = s
	ctx.simMu.Unlock()
}

// BuildPrompt renders the query prompt for node v with the selected
// neighbors, following the method's ranking convention.
func BuildPrompt(ctx *Context, v tag.NodeID, sel []Selected, ranked bool) string {
	g := ctx.Graph
	req := prompt.Request{
		TargetTitle:    g.Nodes[v].Title,
		TargetAbstract: g.Nodes[v].Abstract,
		Categories:     g.Classes,
		Ranked:         ranked,
		NodeType:       ctx.NodeType,
		EdgeRelation:   ctx.EdgeRelation,
	}
	for _, s := range sel {
		nb := prompt.Neighbor{Title: g.Nodes[s.ID].Title, Label: s.Label}
		if ctx.IncludeAbstracts {
			nb.Abstract = g.Nodes[s.ID].Abstract
		}
		req.Neighbors = append(req.Neighbors, nb)
	}
	return prompt.Build(req)
}

// KnownFromSplit builds the initial Known map from a split's labeled
// set using ground-truth class names.
func KnownFromSplit(g *tag.Graph, split tag.Split) map[tag.NodeID]string {
	known := make(map[tag.NodeID]string, len(split.Labeled))
	for _, v := range split.Labeled {
		known[v] = g.Classes[g.Nodes[v].Label]
	}
	return known
}

// Standard returns the paper's benchmark method set in its canonical
// order: 1-hop random, 2-hop random, SNS.
func Standard() []Method {
	return []Method{KHopRandom{K: 1}, KHopRandom{K: 2}, SNS{}}
}

// ByName resolves a method from its CLI spelling, the single source of
// truth shared by mqorun, mqobench and llmserve's serving tier.
func ByName(name string) (Method, error) {
	switch strings.ToLower(name) {
	case "vanilla":
		return Vanilla{}, nil
	case "1-hop", "1hop":
		return KHopRandom{K: 1}, nil
	case "2-hop", "2hop":
		return KHopRandom{K: 2}, nil
	case "sns":
		return SNS{}, nil
	default:
		return nil, fmt.Errorf("unknown method %q (vanilla, 1-hop, 2-hop, sns)", name)
	}
}
