// Package encode turns node text into numeric features.
//
// The paper encodes text attributes t_i into input features x_i via
// shallow methods such as Bag-of-Words before feeding a surrogate MLP
// classifier (Section V-A), and the SNS baseline ranks neighbors by
// SimCSE text similarity. This package supplies both: dense BoW /
// TF-IDF encoders with a capped feature dimension for the surrogate
// classifier, and sparse TF-IDF cosine similarity as the offline
// substitute for SimCSE.
package encode

import (
	"math"
	"sort"
	"strings"
)

// Encoder maps text to fixed-size feature vectors. Construct one with
// NewBoW or NewTFIDF over a corpus; Encode then embeds any text into
// the corpus vocabulary space.
type Encoder struct {
	index map[string]int // word -> feature dimension
	words []string       // dimension -> word
	idf   []float64      // nil for plain BoW
}

// Dims returns the feature dimensionality.
func (e *Encoder) Dims() int { return len(e.words) }

// Word returns the vocabulary word mapped to dimension d.
func (e *Encoder) Word(d int) string { return e.words[d] }

// vocabOf selects the maxFeatures most document-frequent words of the
// corpus, breaking ties lexicographically for determinism.
func vocabOf(corpus []string, maxFeatures int) ([]string, map[string]int, []int) {
	df := map[string]int{}
	// One seen-set serves every document: clearing keeps its buckets,
	// where a fresh map per document would regrow them each time.
	seen := map[string]bool{}
	for _, doc := range corpus {
		clear(seen)
		for _, w := range strings.Fields(doc) {
			if !seen[w] {
				seen[w] = true
				df[w]++
			}
		}
	}
	words := make([]string, 0, len(df))
	for w := range df {
		words = append(words, w)
	}
	sort.Slice(words, func(i, j int) bool {
		if df[words[i]] != df[words[j]] {
			return df[words[i]] > df[words[j]]
		}
		return words[i] < words[j]
	})
	if maxFeatures > 0 && len(words) > maxFeatures {
		words = words[:maxFeatures]
	}
	index := make(map[string]int, len(words))
	freqs := make([]int, len(words))
	for i, w := range words {
		index[w] = i
		freqs[i] = df[w]
	}
	return words, index, freqs
}

// NewBoW builds a bag-of-words encoder over the corpus, keeping at most
// maxFeatures dimensions (0 keeps everything).
func NewBoW(corpus []string, maxFeatures int) *Encoder {
	words, index, _ := vocabOf(corpus, maxFeatures)
	return &Encoder{index: index, words: words}
}

// NewTFIDF builds a TF-IDF encoder over the corpus, keeping at most
// maxFeatures dimensions (0 keeps everything). IDF uses the smoothed
// formulation log((1+N)/(1+df)) + 1.
func NewTFIDF(corpus []string, maxFeatures int) *Encoder {
	words, index, freqs := vocabOf(corpus, maxFeatures)
	n := float64(len(corpus))
	idf := make([]float64, len(words))
	for i, df := range freqs {
		idf[i] = math.Log((1+n)/(1+float64(df))) + 1
	}
	return &Encoder{index: index, words: words, idf: idf}
}

// Encode embeds text into the encoder's feature space as an
// L2-normalized dense vector. Unknown words are ignored.
func (e *Encoder) Encode(text string) []float64 {
	v := make([]float64, len(e.words))
	for _, w := range strings.Fields(text) {
		if d, ok := e.index[w]; ok {
			v[d]++
		}
	}
	if e.idf != nil {
		for d := range v {
			v[d] *= e.idf[d]
		}
	}
	normalize(v)
	return v
}

// EncodeSparse embeds text as a sparse L2-normalized vector, suitable
// for similarity over large vocabularies.
func (e *Encoder) EncodeSparse(text string) map[int]float64 {
	v := map[int]float64{}
	for _, w := range strings.Fields(text) {
		if d, ok := e.index[w]; ok {
			v[d]++
		}
	}
	if e.idf != nil {
		for d := range v {
			v[d] *= e.idf[d]
		}
	}
	var norm float64
	for _, x := range v {
		norm += x * x
	}
	if norm > 0 {
		norm = math.Sqrt(norm)
		for d := range v {
			v[d] /= norm
		}
	}
	return v
}

func normalize(v []float64) {
	var norm float64
	for _, x := range v {
		norm += x * x
	}
	if norm == 0 {
		return
	}
	norm = math.Sqrt(norm)
	for i := range v {
		v[i] /= norm
	}
}

// Cosine returns the cosine similarity of two dense vectors. Vectors of
// different lengths compare over the shorter prefix; zero vectors score
// zero.
func Cosine(a, b []float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	var dot, na, nb float64
	for i := 0; i < n; i++ {
		dot += a[i] * b[i]
	}
	for _, x := range a {
		na += x * x
	}
	for _, x := range b {
		nb += x * x
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

// CosineSparse returns the cosine similarity of two sparse vectors.
func CosineSparse(a, b map[int]float64) float64 {
	if len(b) < len(a) {
		a, b = b, a
	}
	var dot, na, nb float64
	for d, x := range a {
		na += x * x
		if y, ok := b[d]; ok {
			dot += x * y
		}
	}
	for _, y := range b {
		nb += y * y
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

// Similarity scores two texts with TF-IDF cosine in the encoder's
// space. It is the repository's stand-in for SimCSE sentence
// similarity: on class-vocabulary text, lexical overlap is a faithful
// proxy for semantic similarity.
func (e *Encoder) Similarity(a, b string) float64 {
	return CosineSparse(e.EncodeSparse(a), e.EncodeSparse(b))
}
