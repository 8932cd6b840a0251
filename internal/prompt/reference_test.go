package prompt

import (
	"math"
	"strings"
	"testing"

	"repro/internal/infotheory"
)

// refSpanScore is the map-based span scoring the scratch scorer
// replaced, kept as its oracle: the background is strings.Fields of the
// whole prompt, the span's words are re-split from its text, and
// distinct words get their slots through a fresh map.
func refSpanScore(promptText, spanText string) float64 {
	background := map[string]float64{}
	var backgroundTotal float64
	for _, w := range strings.Fields(promptText) {
		background[w]++
		backgroundTotal++
	}
	spanCounts := map[string]float64{}
	var p, q []float64
	rest := backgroundTotal
	for _, w := range strings.Fields(spanText) {
		if _, seen := spanCounts[w]; !seen {
			p = append(p, 0)
			q = append(q, background[w])
			rest -= background[w]
			spanCounts[w] = float64(len(p) - 1)
		}
		p[int(spanCounts[w])]++
	}
	p = append(p, 0)
	q = append(q, rest)
	return infotheory.Entropy(p) + infotheory.KLDivergence(p, q)
}

// TestSpanScoresMatchReference requires every span score to be
// bit-identical to the reference: the scores decide which spans are
// dropped, so any drift in summation order would change compressed
// bytes and with them every prompt-cache key.
func TestSpanScoresMatchReference(t *testing.T) {
	prompts := []string{Build(compressSample()), pubmedPrompt(t)}
	prompts = append(prompts, Build(Request{
		TargetTitle:    "repeated words",
		TargetAbstract: "the the the graph graph node. node node the graph. a b a b a b a b a",
		Neighbors:      []Neighbor{{Title: "n", Abstract: "graph node the graph. é é ü"}},
		Categories:     []string{"A"},
	}))
	for _, p := range prompts {
		sc := scratchPool.Get().(*scratch)
		abs := sc.load(p)
		if len(abs) == 0 {
			t.Fatalf("no abstracts found in:\n%s", p)
		}
		sc.scoreSpans(abs)
		for _, a := range abs {
			for _, sp := range a.spans {
				text := strings.Join(sc.spanWords(sp), " ")
				if got, want := sp.score, refSpanScore(p, text); math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("span %q: score %v, reference %v", text, got, want)
				}
			}
		}
		sc.release()
	}
}
