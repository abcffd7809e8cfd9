package stats

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// cellCounts holds the per-cell token statistics that feed the word,
// stopword, whitespace and delimiter moments of Stats.
type cellCounts struct {
	words      int // maximal runs of non-space runes, as strings.Fields splits
	stopwords  int // words that are stopwords once punctuation-trimmed and lowered
	whitespace int // ' ' and '\t' bytes
	delims     int // ',', ';' and '|' bytes
}

// Byte classes of the ASCII range, combined as bit flags in asciiClass.
const (
	classSpace      = 1 << iota // unicode.IsSpace: '\t', '\n', '\v', '\f', '\r', ' '
	classWhitespace             // counted by CountWhitespace: ' ', '\t'
	classDelim                  // counted by CountDelimiters: ',', ';', '|'
	classPunct                  // trimmed from both ends of a word before the stopword check
)

// stopwordPunct is the cutset trimmed from a word before the stopword check.
const stopwordPunct = ".,;:!?\"'()"

var asciiClass = func() (t [utf8.RuneSelf]uint8) {
	for _, set := range []struct {
		bytes string
		class uint8
	}{
		{"\t\n\v\f\r ", classSpace},
		{" \t", classWhitespace},
		{",;|", classDelim},
		{stopwordPunct, classPunct},
	} {
		for i := 0; i < len(set.bytes); i++ {
			t[set.bytes[i]] |= set.class
		}
	}
	return t
}()

// maxStopwordLen is the byte length of the longest stopword.
var maxStopwordLen = func() int {
	n := 0
	for w := range stopwords {
		n = max(n, len(w))
	}
	return n
}()

// scanCell classifies every byte of v once and fills all four counters in
// that single walk. ASCII bytes, which make up nearly every cell, are
// classified through asciiClass; only a byte >= 0x80 starts a UTF-8 decode,
// and the decoded rune is checked with unicode.IsSpace. An invalid byte
// decodes to utf8.RuneError of width 1, as in a range loop, and is never a
// space. Whitespace and delimiters are ASCII, and a multi-byte encoding
// holds only bytes >= 0x80, so counting them per byte equals counting them
// per rune.
func scanCell(v string) cellCounts {
	var c cellCounts
	start, ascii := -1, true // the current word's first byte, and whether it is all ASCII
	for i := 0; i < len(v); {
		b := v[i]
		if b < utf8.RuneSelf {
			class := asciiClass[b]
			if class&classSpace == 0 {
				if start < 0 {
					start, ascii = i, true
				}
				if class&classDelim != 0 {
					c.delims++
				}
			} else {
				if start >= 0 {
					c.endWord(v[start:i], ascii)
					start = -1
				}
				if class&classWhitespace != 0 {
					c.whitespace++
				}
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(v[i:])
		if unicode.IsSpace(r) {
			if start >= 0 {
				c.endWord(v[start:i], ascii)
				start = -1
			}
		} else if start < 0 {
			start, ascii = i, false
		} else {
			ascii = false
		}
		i += size
	}
	if start >= 0 {
		c.endWord(v[start:], ascii)
	}
	return c
}

// endWord counts word w and checks whether it is a stopword. The
// punctuation trim works per byte, exactly as strings.Trim with an ASCII
// cutset does. A trimmed ASCII word longer than the longest stopword is
// rejected without lowering, and a shorter one is lowered into a stack
// buffer. A non-ASCII word keeps its bytes >= 0x80 through the trim, so it
// stays non-ASCII and goes through strings.ToLower, whose Unicode case
// mapping can make it ASCII (the Kelvin sign lowers to 'k'). It is rejected
// outright above utf8.UTFMax*maxStopwordLen bytes, since lowering maps each
// rune to a rune of at least one byte.
func (c *cellCounts) endWord(w string, ascii bool) {
	c.words++
	for len(w) > 0 && w[0] < utf8.RuneSelf && asciiClass[w[0]]&classPunct != 0 {
		w = w[1:]
	}
	for len(w) > 0 && w[len(w)-1] < utf8.RuneSelf && asciiClass[w[len(w)-1]]&classPunct != 0 {
		w = w[:len(w)-1]
	}
	if ascii && len(w) > maxStopwordLen || len(w) > utf8.UTFMax*maxStopwordLen {
		return
	}
	var buf [16]byte
	if !ascii || len(w) > len(buf) {
		if stopwords[strings.ToLower(w)] {
			c.stopwords++
		}
		return
	}
	for i := 0; i < len(w); i++ {
		b := w[i]
		if 'A' <= b && b <= 'Z' {
			b += 'a' - 'A'
		}
		buf[i] = b
	}
	if stopwords[string(buf[:len(w)])] {
		c.stopwords++
	}
}
