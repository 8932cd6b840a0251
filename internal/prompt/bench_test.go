package prompt

import (
	"testing"

	"repro/internal/tag"
)

// pubmedPrompt builds a title+abstract prompt near the size of the
// batch workloads' Pubmed queries (about 9 KB; their mean is 8 KB): a
// target node and three neighbors, every one with its abstract.
func pubmedPrompt(tb testing.TB) string {
	spec, err := tag.SmallSpec("pubmed", 200)
	if err != nil {
		tb.Fatal(err)
	}
	g := tag.Generate(spec, 1, tag.Options{})
	req := Request{
		TargetTitle:    g.Nodes[0].Title,
		TargetAbstract: g.Nodes[0].Abstract,
		Categories:     g.Classes,
		NodeType:       spec.NodeType,
		EdgeRelation:   spec.EdgeType,
	}
	for v := 1; v <= 3; v++ {
		req.Neighbors = append(req.Neighbors, Neighbor{
			Title: g.Nodes[v].Title, Abstract: g.Nodes[v].Abstract, Label: g.Classes[g.Nodes[v].Label],
		})
	}
	return Build(req)
}

var sinkStats CompressStats

// BenchmarkCompressStats measures level-1 compression of one pubmed
// title+abstract prompt, the per-query planning cost of batch-cold.
func BenchmarkCompressStats(b *testing.B) {
	p := pubmedPrompt(b)
	c := Compressor{Level: 1}
	b.ReportAllocs()
	b.SetBytes(int64(len(p)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, sinkStats = c.CompressStats(p)
	}
}
