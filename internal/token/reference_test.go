package token

import (
	"slices"
	"strings"
	"testing"
	"unicode"
)

// refTokenize and refCount are the rune-based tokenizer the byte
// scanner replaced, kept as the parity oracle: every golden, budget and
// recorded benchmark figure depends on the counts, so the two must agree
// exactly on any input, valid UTF-8 or not.
func refTokenize(text string) []string {
	var out []string
	emitWord := func(w string) {
		lower := strings.ToLower(w)
		if len(w) <= maxPiece || common[lower] {
			out = append(out, w)
			return
		}
		for len(w) > 0 {
			n := maxPiece
			if len(w) < n {
				n = len(w)
			}
			if len(w) == n+1 {
				n++
			}
			out = append(out, w[:n])
			w = w[n:]
		}
	}
	emitDigits := func(d string) {
		for len(d) > 0 {
			n := 3
			if len(d) < n {
				n = len(d)
			}
			out = append(out, d[:n])
			d = d[n:]
		}
	}

	i := 0
	rs := []rune(text)
	for i < len(rs) {
		r := rs[i]
		switch {
		case unicode.IsSpace(r):
			i++
		case unicode.IsLetter(r):
			j := i
			for j < len(rs) && unicode.IsLetter(rs[j]) {
				j++
			}
			emitWord(string(rs[i:j]))
			i = j
		case unicode.IsDigit(r):
			j := i
			for j < len(rs) && unicode.IsDigit(rs[j]) {
				j++
			}
			emitDigits(string(rs[i:j]))
			i = j
		default:
			out = append(out, string(r))
			i++
		}
	}
	return out
}

func refCount(text string) int {
	n := 0
	i := 0
	rs := []rune(text)
	for i < len(rs) {
		r := rs[i]
		switch {
		case unicode.IsSpace(r):
			i++
		case unicode.IsLetter(r):
			j := i
			for j < len(rs) && unicode.IsLetter(rs[j]) {
				j++
			}
			n += refWordTokens(string(rs[i:j]))
			i = j
		case unicode.IsDigit(r):
			j := i
			for j < len(rs) && unicode.IsDigit(rs[j]) {
				j++
			}
			n += (len(string(rs[i:j])) + 2) / 3
			i = j
		default:
			n++
			i++
		}
	}
	return n
}

func refWordTokens(w string) int {
	if len(w) <= maxPiece || common[strings.ToLower(w)] {
		return 1
	}
	n := len(w) / maxPiece
	if len(w)%maxPiece > 1 {
		n++
	}
	return n
}

// parityCases seed FuzzCount with the inputs where a byte scanner is
// most likely to drift from the rune-based reference.
var parityCases = []string{
	"",
	"The quick brown fox jumps over the lazy dog.",
	"li\u212Aely",         // Kelvin sign: lowercases to the common word "likely"
	"\u0130nto the Graph", // dotted capital I lowercases to 'i': "into"
	"bad \xff\xfe bytes \xc3 and \xed\xa0\x80 surrogate",
	"literal \uFFFD replacement \uFFFD\uFFFD",
	"٠١٢٣٤ and 12٣٤4", // Arabic-Indic digits
	"LEARNING Learning lEaRnInG CATEGORIES Categories NetWorks",
	"naïve café Ünïcödé wörds ẞtraße",
	"tab\tnew\nline\u0085nel nbsp\u00a0ideographic\u3000space",
	"node 12345, edge (1,2); weight=0.75",
}

func FuzzCount(f *testing.F) {
	for _, s := range parityCases {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := Count(s), refCount(s); got != want {
			t.Fatalf("Count(%q) = %d, reference %d", s, got, want)
		}
		if got, want := Tokenize(s), refTokenize(s); !slices.Equal(got, want) {
			t.Fatalf("Tokenize(%q) = %q, reference %q", s, got, want)
		}
	})
}

func TestCommonWordsFitFoldBuffer(t *testing.T) {
	for w := range common {
		ok := len(w) <= maxCommonLen
		for i := 0; i < len(w); i++ {
			ok = ok && 'a' <= w[i] && w[i] <= 'z'
		}
		if !ok {
			t.Errorf("common word %q must be lowercase ASCII letters, at most %d bytes", w, maxCommonLen)
		}
	}
}

func TestCountAllocatesNothing(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { Count(benchText) }); n != 0 {
		t.Fatalf("Count allocates %v times per call on an ASCII prompt, want 0", n)
	}
}

func TestKelvinSignWordIsCommon(t *testing.T) {
	if got := Count("li\u212Aely"); got != 1 {
		t.Fatalf("Count(Kelvin-sign \"likely\") = %d, want 1 (common word)", got)
	}
}
