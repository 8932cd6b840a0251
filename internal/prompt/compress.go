// Prompt compression: token-pruning v2. The paper's τ-pruning decides
// *which* queries keep neighbor text; the Compressor decides *what
// survives inside* a prompt that kept it. Abstract text — the target
// node's and each neighbor's — is split into spans (sentences, long
// sentences chunked into fixed word windows), each span is scored for
// signal density against the whole prompt's word distribution with the
// infotheory machinery, and the lowest-density spans are dropped until
// the per-level span caps and the optional per-query token budget are
// met. Titles, labels, the category list and the task instruction are
// structural and never touched, so Parse recovers the same query from
// the compressed prompt.
//
// The two properties everything downstream leans on:
//
//   - Determinism: compression is a pure function of (prompt text,
//     Level, TargetTokens). Same input, same output, on any goroutine,
//     at any worker count.
//   - Idempotence: Compress(Compress(p)) == Compress(p). Kept spans are
//     re-rendered canonically (single-space joins), the span splitter
//     re-derives identical boundaries from the rendered text, and a
//     prompt already within its caps and budget is never altered — so a
//     second pass finds nothing to drop.
package prompt

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/infotheory"
	"repro/internal/token"
)

// compressedTemplateVersion is the template generation of compressed
// prompts; the compression level is appended (e.g. "v2+c2") so every
// level owns a disjoint prompt-cache namespace. A cached answer is only
// valid for the exact bytes that bought it, and compression changes the
// bytes — versioning the namespace makes that invalidation structural
// instead of accidental.
const compressedTemplateVersion = "v2"

// spanWords is the chunking window: sentences longer than this many
// words are split into fixed windows so span-level dropping still has
// granularity on the generated abstracts, which are long single
// "sentences" without terminal punctuation.
const spanWords = 8

// MaxCompressLevel is the strongest compression level.
const MaxCompressLevel = 3

// levelSpanCap maps a compression level to the maximum spans kept per
// abstract: level 1 trims tails, level 2 halves, level 3 keeps only the
// densest span of each abstract.
func levelSpanCap(level int) int {
	switch level {
	case 1:
		return 4
	case 2:
		return 2
	default:
		return 1
	}
}

// Compressor deterministically compresses prompts built by Build. The
// zero value is disabled (Compress returns its input unchanged).
type Compressor struct {
	// Level selects the per-abstract span caps (1..MaxCompressLevel);
	// values above MaxCompressLevel clamp. 0 with TargetTokens > 0
	// behaves as level 1.
	Level int
	// TargetTokens, when > 0, is the per-query compressed token budget:
	// after the level caps, the lowest-density spans anywhere in the
	// prompt keep dropping until token.Count(prompt) fits the budget or
	// only the structural floor remains (the target node always keeps at
	// least one abstract span).
	TargetTokens int
}

// Enabled reports whether the compressor does anything.
func (c Compressor) Enabled() bool { return c.Level > 0 || c.TargetTokens > 0 }

// level returns the effective level clamped to [1, MaxCompressLevel].
func (c Compressor) level() int {
	l := c.Level
	if l < 1 {
		l = 1
	}
	if l > MaxCompressLevel {
		l = MaxCompressLevel
	}
	return l
}

// TemplateVersion returns the prompt-template generation the compressor
// produces: the base TemplateVersion when disabled, "v2+c<level>" when
// enabled. It feeds promptcache.NamespaceVersion so cached answers can
// never cross compression configurations.
func (c Compressor) TemplateVersion() string {
	if !c.Enabled() {
		return TemplateVersion
	}
	return fmt.Sprintf("%s+c%d", compressedTemplateVersion, c.level())
}

// CompressStats reports one compression outcome.
type CompressStats struct {
	// TokensBefore/TokensAfter are token.Count of the prompt before and
	// after compression; equal when the compressor is disabled or the
	// prompt had nothing to drop.
	TokensBefore int
	TokensAfter  int
}

// Saved is the token saving (never negative).
func (s CompressStats) Saved() int {
	if d := s.TokensBefore - s.TokensAfter; d > 0 {
		return d
	}
	return 0
}

// Ratio is TokensAfter/TokensBefore in (0, 1]; 1 when nothing shrank.
func (s CompressStats) Ratio() float64 {
	if s.TokensBefore <= 0 {
		return 1
	}
	return float64(s.TokensAfter) / float64(s.TokensBefore)
}

// Compress returns the compressed prompt. Prompts that do not parse as
// Build output are returned unchanged — the compressor refuses to
// guess at text it cannot read back, so it can never corrupt a prompt.
func (c Compressor) Compress(promptText string) string {
	out, _ := c.CompressStats(promptText)
	return out
}

// CompressStats is Compress with before/after token accounting for the
// metrics and ledger layers. It is safe for concurrent use; each call
// borrows its working buffers from a pool, so compressing on many
// goroutines reuses a few buffers instead of allocating per prompt.
func (c Compressor) CompressStats(promptText string) (string, CompressStats) {
	before := token.Count(promptText)
	st := CompressStats{TokensBefore: before, TokensAfter: before}
	if !c.Enabled() {
		return promptText, st
	}
	if _, err := Parse(promptText); err != nil {
		return promptText, st
	}
	sc := scratchPool.Get().(*scratch)
	defer sc.release()
	abs := sc.load(promptText)
	if len(abs) == 0 {
		return promptText, st
	}
	sc.scoreSpans(abs)

	// Phase 1 — level caps: each abstract keeps its cap's worth of
	// densest spans. The target abstract always keeps at least one span
	// so Parse still recovers the target node.
	spanCap := levelSpanCap(c.level())
	for i := range abs {
		abs[i].keepTop(spanCap)
	}

	// Phase 2 — token budget: drop the globally lowest-density spans
	// (later spans first on ties) until the rendered prompt fits. The
	// running total is tracked incrementally: token.Count never forms a
	// token across whitespace, so dropping a space-separated span
	// shrinks the prompt by exactly its words' counts (plus the
	// "Abstract:" prefix when a neighbor's line empties out and is
	// removed entirely).
	if c.TargetTokens > 0 {
		total := token.Count(sc.render(abs))
		if total > c.TargetTokens {
			prefixTokens := token.Count("Abstract:")
			for _, d := range droppable(abs) {
				if total <= c.TargetTokens {
					break
				}
				a := &abs[d.abs]
				a.kept[d.span] = false
				for _, w := range sc.spanWords(a.spans[d.span]) {
					total -= token.Count(w)
				}
				if !a.target && a.keptCount() == 0 {
					total -= prefixTokens
				}
			}
		}
	}

	// A prompt that lost no span renders to its own bytes.
	for i := range abs {
		if abs[i].keptCount() != len(abs[i].spans) {
			out := sc.render(abs)
			st.TokensAfter = token.Count(out)
			return out, st
		}
	}
	return promptText, st
}

// scratch is the working memory of one CompressStats call. Every
// buffer indexes into the prompt being compressed; none outlives the
// call.
type scratch struct {
	lines []string
	// words holds every word of the prompt, line by line; line i's
	// words are words[lineStart[i]:lineStart[i+1]].
	words     []string
	lineStart []int
	// The background distribution: ids numbers the prompt's distinct
	// words, counts[id] is how often word id occurs, and wordID[i] is
	// the id of words[i].
	ids    map[string]int
	counts []float64
	wordID []int
	abs    []abstract
	// out is the render buffer.
	out []byte
}

// scratchPool keeps one scratch per concurrently compressing goroutine,
// so a plan's compression reuses a few buffers instead of allocating
// them per prompt.
var scratchPool = sync.Pool{New: func() any {
	return &scratch{ids: make(map[string]int)}
}}

// release clears the buffers, dropping their references into the
// prompt, and returns sc to the pool.
func (sc *scratch) release() {
	clear(sc.lines)
	clear(sc.words)
	clear(sc.ids)
	clear(sc.abs)
	sc.lines, sc.words, sc.lineStart = sc.lines[:0], sc.words[:0], sc.lineStart[:0]
	sc.counts, sc.wordID = sc.counts[:0], sc.wordID[:0]
	sc.abs = sc.abs[:0]
	scratchPool.Put(sc)
}

// span is one scored compressible unit of an abstract: the words
// scratch.words[lo:hi].
type span struct {
	lo, hi int
	score  float64
}

// spanWords returns sp's words.
func (sc *scratch) spanWords(sp span) []string { return sc.words[sp.lo:sp.hi] }

// abstract is one compressible Abstract line of a prompt.
type abstract struct {
	line   int // index into the prompt's lines
	target bool
	spans  []span
	kept   []bool
}

// keepTop keeps the cap densest spans (earlier spans win ties — the
// opening of an abstract is its topic statement) and drops the rest.
// The target abstract keeps at least one span regardless.
func (a *abstract) keepTop(spanCap int) {
	if spanCap < 1 {
		spanCap = 1
	}
	if len(a.spans) <= spanCap {
		return
	}
	idx := make([]int, len(a.spans))
	for i := range idx {
		idx[i] = i
	}
	// Deterministic selection order: density descending, position
	// ascending on ties (the stable sort preserves index order).
	sort.SliceStable(idx, func(i, j int) bool {
		return a.spans[idx[i]].score > a.spans[idx[j]].score
	})
	for _, i := range idx[spanCap:] {
		a.kept[i] = false
	}
}

// keptCount returns how many spans survive so far.
func (a *abstract) keptCount() int {
	n := 0
	for _, k := range a.kept {
		if k {
			n++
		}
	}
	return n
}

// dropRef addresses one droppable span.
type dropRef struct {
	abs, span int
	score     float64
}

// droppable lists the spans the budget phase may still drop, lowest
// density first (later position first on ties, preserving abstract
// openings longest). The target abstract's last surviving span is
// excluded: the prompt must keep a recoverable target node.
func droppable(abs []abstract) []dropRef {
	var out []dropRef
	for ai := range abs {
		floor := 0
		if abs[ai].target {
			floor = 1
		}
		kept := abs[ai].keptCount()
		for si := len(abs[ai].spans) - 1; si >= 0; si-- {
			if !abs[ai].kept[si] {
				continue
			}
			if kept <= floor {
				break
			}
			kept--
			out = append(out, dropRef{abs: ai, span: si, score: abs[ai].spans[si].score})
		}
	}
	// Stable sort by score ascending; the construction order above
	// already encodes later-position-first within equal scores.
	sort.SliceStable(out, func(i, j int) bool { return out[i].score < out[j].score })
	return out
}

// load splits the prompt into lines and words and locates the
// compressible Abstract lines: the target's (line 1, guaranteed by
// Parse) and each neighbor entry's. An abstract's words are its line's
// words after the "Abstract:" prefix.
func (sc *scratch) load(promptText string) []abstract {
	for rest := promptText; ; {
		line, after, more := strings.Cut(rest, "\n")
		sc.lines = append(sc.lines, line)
		sc.lineStart = append(sc.lineStart, len(sc.words))
		sc.words = append(sc.words, strings.Fields(line)...)
		if !more {
			break
		}
		rest = after
	}
	sc.lineStart = append(sc.lineStart, len(sc.words))

	lines := sc.lines
	add := func(i int, target bool) {
		spans := sc.splitSpans(sc.lineStart[i]+1, sc.lineStart[i+1])
		if len(spans) == 0 {
			return
		}
		a := abstract{line: i, target: target, spans: spans, kept: make([]bool, len(spans))}
		for j := range a.kept {
			a.kept[j] = true
		}
		sc.abs = append(sc.abs, a)
	}
	if len(lines) > 1 && strings.HasPrefix(lines[1], "Abstract: ") {
		add(1, true)
	}
	inNeighbor := false
	for i := 2; i < len(lines); i++ {
		switch {
		case strings.HasPrefix(lines[i], "Neighbor "):
			inNeighbor = true
		case lines[i] == "}}":
			inNeighbor = false
		case inNeighbor && strings.HasPrefix(lines[i], "Abstract: "):
			add(i, false)
		}
	}
	return sc.abs
}

// splitSpans cuts the abstract words sc.words[lo:hi] into spans:
// sentence boundaries first (a word ending in ./!/? terminates a
// sentence), then fixed windows of spanWords within each sentence.
// Chunking restarts at every sentence boundary, so re-splitting the
// canonical join of any kept subset never yields more spans than were
// kept — the invariant behind idempotence.
func (sc *scratch) splitSpans(lo, hi int) []span {
	var out []span
	start := lo
	flush := func(end int) {
		for s := start; s < end; s += spanWords {
			out = append(out, span{lo: s, hi: min(s+spanWords, end)})
		}
		start = end
	}
	for i := lo; i < hi; i++ {
		w := sc.words[i]
		switch w[len(w)-1] {
		case '.', '!', '?':
			flush(i + 1)
		}
	}
	flush(hi)
	return out
}

// scoreSpans assigns each span its signal density: the cross-entropy
// (in bits per word) of the span's word distribution under the whole
// prompt's — H(p_span) + D_KL(p_span ‖ p_prompt), which is the mean
// self-information of the span's words under the prompt's unigram
// model. It is the unigram analog of LongLLMLingua's perplexity
// ranking: a span of words repeated all over the prompt carries little
// signal and is dropped first; a span concentrating rare, distinctive
// words survives. The background includes the span itself, so the
// divergence is always finite.
func (sc *scratch) scoreSpans(abs []abstract) {
	for _, w := range sc.words {
		id, seen := sc.ids[w]
		if !seen {
			id = len(sc.counts)
			sc.ids[w] = id
			sc.counts = append(sc.counts, 0)
		}
		sc.counts[id]++
		sc.wordID = append(sc.wordID, id)
	}
	backgroundTotal := float64(len(sc.words))
	// A span holds at most spanWords words, so its distribution fits on
	// the stack: one slot per distinct word plus the catch-all bucket.
	var pBuf, qBuf [spanWords + 1]float64
	for ai := range abs {
		for si := range abs[ai].spans {
			// Score over the span's distinct words (in first-occurrence
			// order) plus one catch-all bucket holding the rest of the
			// prompt's mass. KLDivergence normalizes q over its own sum,
			// so this equals the full-vocabulary computation exactly, at
			// O(span words) per span instead of O(vocabulary).
			sp := &abs[ai].spans[si]
			ids := sc.wordID[sp.lo:sp.hi]
			p, q := pBuf[:0], qBuf[:0]
			var slotOf [spanWords]int
			rest := backgroundTotal
			for i, id := range ids {
				if k := slices.Index(ids[:i], id); k >= 0 {
					slotOf[i] = slotOf[k]
				} else {
					slotOf[i] = len(p)
					p = append(p, 0)
					q = append(q, sc.counts[id])
					rest -= sc.counts[id]
				}
				p[slotOf[i]]++
			}
			p = append(p, 0)
			q = append(q, rest)
			sp.score = infotheory.Entropy(p) + infotheory.KLDivergence(p, q)
		}
	}
}

// render reconstructs the prompt from its lines with the surviving
// spans. An abstract whose span set is unchanged keeps its original
// bytes; a changed one is re-rendered canonically in the Build format
// ("Abstract: <span words joined by single spaces> "), and a neighbor
// abstract losing every span loses its whole line — exactly what Build
// emits for an empty neighbor abstract. abs is in line order, and line
// 0 (the target title) is never an abstract.
func (sc *scratch) render(abs []abstract) string {
	b := sc.out[:0]
	next := 0
	for i, l := range sc.lines {
		var a *abstract
		if next < len(abs) && abs[next].line == i {
			a = &abs[next]
			next++
		}
		if a != nil && a.keptCount() == 0 && !a.target {
			continue
		}
		if i > 0 {
			b = append(b, '\n')
		}
		if a == nil || a.keptCount() == len(a.spans) {
			b = append(b, l...)
			continue
		}
		b = append(b, "Abstract: "...)
		for si, k := range a.kept {
			if !k {
				continue
			}
			for _, w := range sc.spanWords(a.spans[si]) {
				b = append(b, w...)
				b = append(b, ' ')
			}
		}
	}
	sc.out = b
	// Copy out of the reused buffer: the prompt is sized exactly, and
	// no later call can overwrite it.
	return string(b)
}
