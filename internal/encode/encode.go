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
	"cmp"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"unicode/utf8"
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

// minShardDocs is the fewest documents worth a goroutine of their own
// when counting document frequencies.
const minShardDocs = 256

// vocabOf selects the maxFeatures most document-frequent words of the
// corpus, breaking ties lexicographically for determinism. The count is
// sharded over min(GOMAXPROCS, docs/minShardDocs) goroutines.
func vocabOf(corpus []string, maxFeatures int) ([]string, map[string]int, []int) {
	return vocabSharded(corpus, maxFeatures, min(runtime.GOMAXPROCS(0), len(corpus)/minShardDocs))
}

// vocabSharded is vocabOf with the corpus split into the given number
// of contiguous shards, counted concurrently and summed. Document
// frequencies are integer sums and the sort below is a total order, so
// the result does not depend on the shard count.
func vocabSharded(corpus []string, maxFeatures, shards int) ([]string, map[string]int, []int) {
	shards = max(1, min(shards, len(corpus)))
	tables := make([]dfTable, shards)
	var wg sync.WaitGroup
	for s := range tables {
		lo, hi := s*len(corpus)/shards, (s+1)*len(corpus)/shards
		wg.Add(1)
		go func() {
			defer wg.Done()
			tables[s].count(corpus[lo:hi])
		}()
	}
	wg.Wait()
	all := &tables[0]
	for _, t := range tables[1:] {
		for _, e := range t.ents {
			all.add(e.word, e.df)
		}
	}
	ents := all.ents
	slices.SortFunc(ents, func(a, b dfCount) int {
		if a.df != b.df {
			return cmp.Compare(b.df, a.df)
		}
		return strings.Compare(a.word, b.word)
	})
	if maxFeatures > 0 && len(ents) > maxFeatures {
		ents = ents[:maxFeatures]
	}
	words := make([]string, len(ents))
	index := make(map[string]int, len(ents))
	freqs := make([]int, len(ents))
	for i, e := range ents {
		// A word is a substring of its document; cloning it lets the
		// corpus go once the encoder is built.
		w := strings.Clone(e.word)
		words[i] = w
		index[w] = i
		freqs[i] = e.df
	}
	return words, index, freqs
}

// dfCount is one word's document frequency, with the last document
// that counted it so a word repeated within a document counts once.
type dfCount struct {
	word string
	df   int
	last int
}

// dfTable counts document frequencies with one map lookup per word.
type dfTable struct {
	at   map[string]int // word -> index into ents
	ents []dfCount
}

// add returns the entry of word, creating it with df n when absent and
// otherwise adding n to its df.
func (t *dfTable) add(word string, n int) *dfCount {
	if t.at == nil {
		t.at = map[string]int{}
	}
	j, ok := t.at[word]
	if !ok {
		t.at[word] = len(t.ents)
		t.ents = append(t.ents, dfCount{word: word, df: n, last: -1})
		return &t.ents[len(t.ents)-1]
	}
	e := &t.ents[j]
	e.df += n
	return e
}

// count adds the document frequencies of docs.
func (t *dfTable) count(docs []string) {
	for d, doc := range docs {
		eachField(doc, func(w string) {
			if e := t.add(w, 0); e.last != d {
				e.last = d
				e.df++
			}
		})
	}
}

// eachField calls f on every word of s, exactly the words (and order)
// strings.Fields(s) returns. ASCII text is split in place without
// allocating; text holding any non-ASCII byte goes through
// strings.Fields itself, which owns the Unicode whitespace rules.
func eachField(s string, f func(string)) {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			for _, w := range strings.Fields(s) {
				f(w)
			}
			return
		}
	}
	start := -1
	for i := 0; i < len(s); i++ {
		if asciiSpace[s[i]] {
			if start >= 0 {
				f(s[start:i])
				start = -1
			}
		} else if start < 0 {
			start = i
		}
	}
	if start >= 0 {
		f(s[start:])
	}
}

// asciiSpace marks the ASCII bytes strings.Fields splits on.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

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
	eachField(text, func(w string) {
		if d, ok := e.index[w]; ok {
			v[d]++
		}
	})
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
	eachField(text, func(w string) {
		if d, ok := e.index[w]; ok {
			v[d]++
		}
	})
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
