package encode

import (
	"reflect"
	"sort"
	"strings"
	"testing"
)

// vocabReference is the straightforward vocabulary construction the
// sharded count must reproduce: strings.Fields per document, a seen-set
// per document, a word -> df map and a sort by (df desc, word asc).
func vocabReference(corpus []string, maxFeatures int) ([]string, map[string]int, []int) {
	df := map[string]int{}
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

// docSep separates the documents of a fuzz input. It is ASCII and not
// whitespace, so it never splits a word differently from a real corpus.
const docSep = "\x1e"

// FuzzVocab checks that eachField splits exactly like strings.Fields and
// that the sharded vocabulary (at one shard and at several) matches the
// reference: the same words in the same order, the same index and the
// same document frequencies.
func FuzzVocab(f *testing.F) {
	f.Add("alpha beta\x1ebeta gamma\x1ealpha alpha alpha", uint8(2), uint8(0))
	f.Add("a\u0085b\x1ea\u00a0b c\x1ea b\u2003c\x1eb\u3000c a", uint8(3), uint8(0))
	f.Add("\xff\xfe bad\x1ebad \xc3\x28 utf\x1e\xe2\x82", uint8(4), uint8(1))
	f.Add("\x1e\x1e \t\n\x1eword", uint8(5), uint8(0))
	f.Add("x x x x\x1ey y x\x1ez\x1ex y z\x1ez z", uint8(7), uint8(2))
	f.Add("tie b a\x1ec a b\x1e\v\f\r tie", uint8(1), uint8(3))
	f.Fuzz(func(t *testing.T, data string, shards, maxFeatures uint8) {
		corpus := strings.Split(data, docSep)
		for _, doc := range corpus {
			var got []string
			eachField(doc, func(w string) { got = append(got, w) })
			if want := strings.Fields(doc); !(len(got) == 0 && len(want) == 0) && !reflect.DeepEqual(got, want) {
				t.Fatalf("eachField(%q) = %q, strings.Fields = %q", doc, got, want)
			}
		}
		keep := int(maxFeatures % 8)
		wantWords, wantIndex, wantFreqs := vocabReference(corpus, keep)
		for _, n := range []int{1, 2 + int(shards%7)} {
			words, index, freqs := vocabSharded(corpus, keep, n)
			if !reflect.DeepEqual(words, wantWords) || !reflect.DeepEqual(index, wantIndex) || !reflect.DeepEqual(freqs, wantFreqs) {
				t.Fatalf("%d shards: words %q index %v df %v; reference %q %v %v",
					n, words, index, freqs, wantWords, wantIndex, wantFreqs)
			}
		}
	})
}

// TestVocabShardsMatchReference runs the sharded count at several shard
// counts over a corpus large enough for vocabOf to shard on its own.
func TestVocabShardsMatchReference(t *testing.T) {
	corpus := benchCorpus(3 * minShardDocs)
	corpus[7] += " caf\u00e9 bar\u3000baz\u00a0qux"
	wantWords, wantIndex, wantFreqs := vocabReference(corpus, 0)
	for _, n := range []int{1, 2, 3, 8} {
		words, index, freqs := vocabSharded(corpus, 0, n)
		if !reflect.DeepEqual(words, wantWords) || !reflect.DeepEqual(index, wantIndex) || !reflect.DeepEqual(freqs, wantFreqs) {
			t.Fatalf("%d shards differ from the reference", n)
		}
	}
	words, _, _ := vocabOf(corpus, 0)
	if !reflect.DeepEqual(words, wantWords) {
		t.Fatal("vocabOf differs from the reference")
	}
}
