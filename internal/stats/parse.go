// Package stats computes the per-column descriptive statistics used by the
// benchmark's base featurization (Appendix E of the paper) and provides the
// low-level value classifiers (numeric, integer, date, URL, email, list)
// shared by the rule-based tools and the ML featurization.
package stats

import (
	"regexp"
	"strconv"
	"strings"
	"time"
)

// ParseFloat attempts to interpret a raw cell as a plain number. It accepts
// optional surrounding whitespace and a leading sign but, unlike the
// embedded-number extractors, rejects units, separators and any other
// decoration: "45" and "-3.2e4" parse, "USD 45" and "1,234" do not.
func ParseFloat(v string) (float64, bool) {
	v = strings.TrimSpace(v)
	if v == "" {
		return 0, false
	}
	// Cheap exact screens: every string strconv can accept — decimal,
	// hex float, inf/infinity, nan, underscored digits — draws only from
	// floatAlphabet, and all but the special values hold a decimal digit
	// (a hex float starts "0x"). Rejecting anything else here skips the
	// *NumError allocation strconv would make for each of the (very
	// common) non-numeric cells on the featurize hot path, words such as
	// "face" or "deny" included.
	digit := false
	for i := 0; i < len(v); i++ {
		c := v[i]
		if !floatAlphabet[c] {
			return 0, false
		}
		digit = digit || '0' <= c && c <= '9'
	}
	if !digit && !isSpecialFloat(v) {
		return 0, false
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, false
	}
	return f, true
}

// isSpecialFloat reports whether v is one of the digit-free spellings
// strconv.ParseFloat may accept: "inf", "infinity" or "nan" in any case,
// after at most one sign.
func isSpecialFloat(v string) bool {
	if v != "" && (v[0] == '+' || v[0] == '-') {
		v = v[1:]
	}
	return strings.EqualFold(v, "inf") || strings.EqualFold(v, "infinity") || strings.EqualFold(v, "nan")
}

// floatAlphabet marks every byte that can occur in a string
// strconv.ParseFloat accepts: digits, sign, dot, underscore digit
// separators, the e/E and hex x/X/p/P exponent markers, hex digits a-f,
// and the letters of "inf"/"infinity"/"nan" — all in both cases.
var floatAlphabet = func() (t [256]bool) {
	for _, c := range []byte("0123456789+-._eExXpPaAbBcCdDfFiInNtTyY") {
		t[c] = true
	}
	return
}()

// IsInt reports whether the raw cell is a plain (possibly signed) integer,
// including zero-padded forms such as "005".
func IsInt(v string) bool {
	v = strings.TrimSpace(v)
	if v == "" {
		return false
	}
	if v[0] == '+' || v[0] == '-' {
		v = v[1:]
	}
	if v == "" {
		return false
	}
	for i := 0; i < len(v); i++ {
		if v[i] < '0' || v[i] > '9' {
			return false
		}
	}
	return true
}

// IsFloatNotInt reports whether the cell parses as a number but is not a
// plain integer (i.e. has a decimal point or exponent).
func IsFloatNotInt(v string) bool {
	_, ok := ParseFloat(v)
	return ok && !IsInt(v)
}

var (
	urlRe   = regexp.MustCompile(`^(?i)(https?|ftp)://[a-z0-9][a-z0-9.\-]*\.[a-z]{2,}(/[^\s]*)?$`)
	emailRe = regexp.MustCompile(`^[a-zA-Z0-9._%+\-]+@[a-zA-Z0-9.\-]+\.[a-zA-Z]{2,}$`)
	// listRe matches a series of items separated by ; or | delimiters
	// (the comma is excluded here because it is ubiquitous inside sentences
	// and embedded numbers; comma lists are caught by listCommaRe below).
	listRe = regexp.MustCompile(`^\s*[^;|]+\s*([;|]\s*[^;|]+\s*){1,}$`)
	// listCommaRe matches comma-separated short tokens (no sentence-like
	// long words sequences): "a, b, c" style.
	listCommaRe = regexp.MustCompile(`^\s*[\w.\-]{1,24}(\s*,\s*[\w.\-]{1,24}){2,}\s*$`)
	// delimSeqRe checks for a sequence of non-alphanumeric delimiters.
	delimSeqRe = regexp.MustCompile(`[;|,]{2,}|[;|]`)
	// embeddedNumRe matches a digit adjacent to non-numeric decoration:
	// units, currency, % signs, or thousands separators.
	embeddedNumRe = regexp.MustCompile(`(?i)^[^\d]{0,8}\d[\d,.'  ]*\s*(%|[a-z$€£¥]{1,12}\.?)?$|^[a-z$€£¥]{1,8}\s*\d[\d,.]*$`)
)

// IsURL reports whether the cell follows the URL standard: a protocol
// followed by a domain, with an optional path.
func IsURL(v string) bool { return urlRe.MatchString(strings.TrimSpace(v)) }

// IsEmail reports whether the cell looks like an email address.
func IsEmail(v string) bool { return emailRe.MatchString(strings.TrimSpace(v)) }

// IsList reports whether the cell is a delimiter-separated series of items,
// e.g. "ru; uk; mx" or "rock|pop|jazz".
func IsList(v string) bool {
	v = strings.TrimSpace(v)
	if v == "" {
		return false
	}
	if listRe.MatchString(v) {
		return true
	}
	return listCommaRe.MatchString(v)
}

// HasDelimiterSequence reports whether the cell contains list-style
// delimiter characters at all; a weaker signal than IsList.
func HasDelimiterSequence(v string) bool { return delimSeqRe.MatchString(v) }

// LooksEmbeddedNumber reports whether the cell contains a number embedded in
// messy syntax: units ("30 Mhz"), currencies ("USD 45"), percents
// ("18.90%"), or grouped digits ("5,00,000"). Plain numbers return false.
func LooksEmbeddedNumber(v string) bool {
	v = strings.TrimSpace(v)
	if v == "" || len(v) > 40 {
		return false
	}
	if _, ok := ParseFloat(v); ok {
		return false
	}
	if !strings.ContainsAny(v, "0123456789") {
		return false
	}
	return embeddedNumRe.MatchString(v)
}

// dateLayouts is the set of textual layouts the timestamp check recognises.
// It intentionally mirrors what a pandas-style parser accepts out of the box
// and omits bare digit runs like "19980112": the paper observes that
// syntax-driven tools miss those, while ML models recover them from the
// attribute name.
var dateLayouts = []string{
	"2006-01-02",
	"2006/01/02",
	"01/02/2006",
	"1/2/2006",
	"01-02-2006",
	"02.01.2006",
	"2006-01-02 15:04:05",
	"2006-01-02T15:04:05",
	"2006-01-02T15:04:05Z07:00",
	"01/02/2006 15:04",
	"Jan 2, 2006",
	"January 2, 2006",
	"2 Jan 2006",
	"2 January 2006",
	"Jan-06",
	"Jan 2006",
	"2006-01",
	"15:04:05",
	"15:04",
	"3:04 PM",
	"Mon, 02 Jan 2006",
	"Monday, January 2, 2006",
	"02-Jan-2006",
	"2-Jan-06",
}

var hmsRe = regexp.MustCompile(`^\d{1,2}hrs:\d{1,2}min:\d{1,2}sec$`)

// IsDate reports whether the cell parses as a date or timestamp under any of
// the recognised layouts (plus the "21hrs:15min:3sec" duration-style form
// used in the paper's examples).
func IsDate(v string) bool {
	v = strings.TrimSpace(v)
	if v == "" || len(v) > 40 {
		return false
	}
	if hmsRe.MatchString(v) {
		return true
	}
	// Quick rejects, both exact: dates need a digit, and every layout
	// also needs a non-digit byte (a separator or a name), so neither a
	// digit-free nor an all-digit value reaches time.Parse and its
	// *ParseError allocation per layout.
	digits := 0
	for i := 0; i < len(v); i++ {
		if '0' <= v[i] && v[i] <= '9' {
			digits++
		}
	}
	if digits == 0 || digits == len(v) {
		return false
	}
	for _, layout := range dateLayouts {
		if _, err := time.Parse(layout, v); err == nil {
			return true
		}
	}
	return false
}

// stopwords is a compact English stopword list used for the
// stopword-count descriptive statistics.
var stopwords = map[string]bool{
	"a": true, "an": true, "the": true, "and": true, "or": true, "but": true,
	"of": true, "in": true, "on": true, "to": true, "is": true, "are": true,
	"was": true, "were": true, "it": true, "its": true, "this": true,
	"that": true, "with": true, "for": true, "as": true, "at": true,
	"by": true, "be": true, "from": true, "has": true, "have": true,
	"had": true, "not": true, "he": true, "she": true, "they": true,
	"we": true, "you": true, "i": true, "his": true, "her": true,
	"their": true, "our": true, "will": true, "would": true, "can": true,
	"all": true, "there": true, "which": true, "when": true, "who": true,
	"what": true, "so": true, "if": true, "about": true, "into": true,
}

// CountWords returns the number of whitespace-separated tokens in v,
// splitting exactly as strings.Fields does (runs of unicode.IsSpace).
func CountWords(v string) int { return scanCell(v).words }

// CountStopwords returns the number of tokens in v that are common English
// stopwords (case-insensitive, with the punctuation ".,;:!?\"'()" trimmed
// from both ends of each token).
func CountStopwords(v string) int { return scanCell(v).stopwords }

// CountWhitespace returns the number of space and tab characters in v.
func CountWhitespace(v string) int { return scanCell(v).whitespace }

// CountDelimiters returns the number of list-style delimiter characters
// (comma, semicolon, pipe) in v.
func CountDelimiters(v string) int { return scanCell(v).delims }
