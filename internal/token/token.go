// Package token implements a deterministic subword tokenizer used to
// meter prompt costs.
//
// The paper's cost model counts OpenAI BPE tokens. Offline we cannot
// ship tiktoken's merge tables, so this package provides a rule-based
// subword tokenizer with the same statistical behaviour on English-like
// text (roughly four characters per token, one token per punctuation
// mark, digit runs split in groups of three). All budget arithmetic in
// the repository — pruning thresholds, Table V potentials, per-query
// meters — flows through Count and Tokenize here, so swapping in a real
// BPE implementation would be a one-package change.
package token

import (
	"strings"
	"sync/atomic"
	"unicode"
	"unicode/utf8"
)

// maxPiece is the longest run of letters emitted as a single token.
// Real BPE merges common 3-6 character chunks; using a fixed chunk size
// of 4 for rare words and whole-token treatment for common short words
// lands within a few percent of tiktoken counts on English text.
const maxPiece = 4

// common holds frequent English words that real BPE vocabularies encode
// as a single token regardless of length.
var common = map[string]bool{
	"the": true, "and": true, "for": true, "with": true, "that": true,
	"this": true, "from": true, "which": true, "paper": true, "into": true,
	"model": true, "method": true, "based": true, "using": true,
	"results": true, "learning": true, "network": true, "networks": true,
	"graph": true, "node": true, "nodes": true, "data": true, "title": true,
	"abstract": true, "category": true, "neighbor": true, "target": true,
	"categories": true, "following": true, "important": true, "output": true,
	"most": true, "likely": true, "belong": true, "does": true, "task": true,
	"citation": true, "product": true, "related": true, "class": true,
}

// Tokenize splits text into subword tokens. The exact pieces matter
// less than their count, but they are stable and reversible enough for
// tests to reason about.
func Tokenize(text string) []string {
	var out []string
	scan(text, &out)
	return out
}

// Count returns the number of tokens in text. It is the unit used for
// every budget computation in the repository, and allocates nothing.
func Count(text string) int { return scan(text, nil) }

// Character classes of the scanner. A run of letters or digits forms
// one word; every other non-space character is a token of its own.
const (
	classOther = iota
	classSpace
	classLetter
	classDigit
)

// asciiClass classifies the ASCII bytes with the same unicode
// predicates the non-ASCII path uses, so the fast path cannot drift
// from them.
var asciiClass = func() (t [utf8.RuneSelf]uint8) {
	for c := range t {
		t[c] = classOfRune(rune(c))
	}
	return t
}()

func classOfRune(r rune) uint8 {
	switch {
	case unicode.IsSpace(r):
		return classSpace
	case unicode.IsLetter(r):
		return classLetter
	case unicode.IsDigit(r):
		return classDigit
	}
	return classOther
}

// decodeClass returns the class and byte width of the non-ASCII
// character at text[i]. An invalid byte decodes as a width-1
// utf8.RuneError, classed Other.
func decodeClass(text string, i int) (class uint8, width int) {
	r, w := utf8.DecodeRuneInString(text[i:])
	return classOfRune(r), w
}

// scan is the one tokenizer pass behind Count and Tokenize: it walks
// text once and returns the token count, appending each piece to *out
// when out is non-nil. Word and digit-run lengths are in bytes of the
// UTF-8 text, whatever the runes.
func scan(text string, out *[]string) int {
	n := 0
	for i := 0; i < len(text); {
		class, w := uint8(0), 1
		if c := text[i]; c < utf8.RuneSelf {
			class = asciiClass[c]
		} else {
			class, w = decodeClass(text, i)
		}
		switch class {
		case classSpace:
			i += w
		case classLetter, classDigit:
			ascii := w == 1
			j := i + w
			for j < len(text) {
				if c := text[j]; c < utf8.RuneSelf {
					if asciiClass[c] != class {
						break
					}
					j++
					continue
				}
				c, wj := decodeClass(text, j)
				if c != class {
					break
				}
				ascii = false
				j += wj
			}
			if class == classLetter {
				n += word(text[i:j], ascii, out)
			} else {
				n += pieces(text[i:j], 3, false, out)
			}
			i = j
		default:
			// Punctuation and symbols: one token each.
			n++
			if out != nil {
				// An invalid byte reads as U+FFFD, as it would
				// through a []rune conversion.
				piece := text[i : i+w]
				if w == 1 && piece[0] >= utf8.RuneSelf {
					piece = string(utf8.RuneError)
				}
				*out = append(*out, piece)
			}
			i += w
		}
	}
	return n
}

// word emits one letter run: a single token when short or common,
// maxPiece-sized pieces otherwise.
func word(w string, ascii bool, out *[]string) int {
	if len(w) <= maxPiece || isCommon(w, ascii) {
		if out != nil {
			*out = append(*out, w)
		}
		return 1
	}
	return pieces(w, maxPiece, true, out)
}

// pieces cuts s into size-byte pieces. With balanced (letter runs) a
// dangling single-byte final piece folds into the one before it, since
// real BPE prefers balanced merges; digit runs are cut in plain groups.
func pieces(s string, size int, balanced bool, out *[]string) int {
	n := 0
	for len(s) > 0 {
		k := size
		if len(s) < k {
			k = len(s)
		}
		if balanced && len(s) == k+1 {
			k++
		}
		if out != nil {
			*out = append(*out, s[:k])
		}
		s = s[k:]
		n++
	}
	return n
}

// maxCommonLen bounds the byte length of every common word (a test
// holds the table to it), so isCommon can fold a word on the stack.
const maxCommonLen = 16

// isCommon reports whether w, lowercased, is a common word. ASCII words
// fold into a stack buffer; a non-ASCII word goes through
// strings.ToLower, because some non-ASCII letters lowercase to ASCII
// ones (the Kelvin sign U+212A lowercases to 'k').
func isCommon(w string, ascii bool) bool {
	if !ascii {
		return common[strings.ToLower(w)]
	}
	if len(w) > maxCommonLen {
		return false
	}
	var buf [maxCommonLen]byte
	for i := 0; i < len(w); i++ {
		buf[i] = w[i] | 0x20 // w is ASCII letters only
	}
	return common[string(buf[:len(w)])]
}

// Meter accumulates token usage across many queries. It is the
// repository's implementation of the paper's Tokens(π ∘ v_i) accounting
// in Eq. 2.
//
// All methods use atomic operations, so one meter can total queries
// issued concurrently from many batch-executor workers; because
// addition commutes, the totals are identical regardless of completion
// order. The fields stay plain int64 (not mutex-guarded) so finished
// meters remain copyable values, as the cost-model APIs expect; only
// copying a meter *while* queries are still in flight would tear.
type Meter struct {
	queries int64
	input   int64
	output  int64
}

// AddQuery records one executed query with the given input and output
// token counts.
func (m *Meter) AddQuery(inputTokens, outputTokens int) {
	atomic.AddInt64(&m.queries, 1)
	atomic.AddInt64(&m.input, int64(inputTokens))
	atomic.AddInt64(&m.output, int64(outputTokens))
}

// Queries returns the number of recorded queries.
func (m *Meter) Queries() int { return int(atomic.LoadInt64(&m.queries)) }

// InputTokens returns total input tokens across recorded queries.
func (m *Meter) InputTokens() int { return int(atomic.LoadInt64(&m.input)) }

// OutputTokens returns total output tokens across recorded queries.
func (m *Meter) OutputTokens() int { return int(atomic.LoadInt64(&m.output)) }

// Total returns total tokens (input + output).
func (m *Meter) Total() int {
	return int(atomic.LoadInt64(&m.input) + atomic.LoadInt64(&m.output))
}

// Reset clears the meter.
func (m *Meter) Reset() {
	atomic.StoreInt64(&m.queries, 0)
	atomic.StoreInt64(&m.input, 0)
	atomic.StoreInt64(&m.output, 0)
}
