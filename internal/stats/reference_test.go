package stats

import (
	"math"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
	"unicode"
	"unicode/utf8"

	"sortinghat/internal/data"
	"sortinghat/internal/synth"
)

// This file keeps the multi-pass formulation of Compute that the single-pass
// cell scanner replaced, verbatim apart from the Reference suffixes, as the
// executable specification of every Stats field: computeReference walks
// each cell five times (IsMissing, CountWords, CountStopwords,
// CountWhitespace, CountDelimiters) and calls IsMissing again for every
// sample in each of the five majority checks.

func isMissingReference(v string) bool {
	return data.MissingTokens[strings.ToLower(strings.TrimSpace(v))]
}

func parseFloatReference(v string) (float64, bool) {
	v = strings.TrimSpace(v)
	if v == "" {
		return 0, false
	}
	for i := 0; i < len(v); i++ {
		if !floatAlphabet[v[i]] {
			return 0, false
		}
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, false
	}
	return f, true
}

func isDateReference(v string) bool {
	v = strings.TrimSpace(v)
	if v == "" || len(v) > 40 {
		return false
	}
	if hmsRe.MatchString(v) {
		return true
	}
	// Quick reject: dates need a digit.
	if !strings.ContainsAny(v, "0123456789") {
		return false
	}
	for _, layout := range dateLayouts {
		if _, err := time.Parse(layout, v); err == nil {
			return true
		}
	}
	return false
}

func countWordsReference(v string) int {
	n := 0
	eachFieldReference(v, func(string) { n++ })
	return n
}

func countStopwordsReference(v string) int {
	n := 0
	var buf [64]byte
	eachFieldReference(v, func(w string) {
		if isStopwordReference(strings.Trim(w, ".,;:!?\"'()"), buf[:]) {
			n++
		}
	})
	return n
}

func eachFieldReference(v string, fn func(string)) {
	start := -1
	for i, r := range v {
		if unicode.IsSpace(r) {
			if start >= 0 {
				fn(v[start:i])
				start = -1
			}
		} else if start < 0 {
			start = i
		}
	}
	if start >= 0 {
		fn(v[start:])
	}
}

func isStopwordReference(w string, buf []byte) bool {
	if len(w) <= len(buf) {
		ascii := true
		for i := 0; i < len(w); i++ {
			c := w[i]
			if c >= utf8.RuneSelf {
				ascii = false
				break
			}
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			buf[i] = c
		}
		if ascii {
			return stopwords[string(buf[:len(w)])]
		}
	}
	return stopwords[strings.ToLower(w)]
}

func countWhitespaceReference(v string) int {
	n := 0
	for _, r := range v {
		if r == ' ' || r == '\t' {
			n++
		}
	}
	return n
}

func countDelimitersReference(v string) int {
	n := 0
	for _, r := range v {
		if r == ',' || r == ';' || r == '|' {
			n++
		}
	}
	return n
}

func computeReference(col *data.Column, samples []string) Stats {
	var s Stats
	s.TotalVals = len(col.Values)

	n := len(col.Values)
	backing := make([]float64, 6*n)
	var (
		numVals = backing[0*n : 0*n : 1*n]
		charC   = backing[1*n : 1*n : 2*n]
		wordC   = backing[2*n : 2*n : 3*n]
		stopC   = backing[3*n : 3*n : 4*n]
		wsC     = backing[4*n : 4*n : 5*n]
		delimC  = backing[5*n : 5*n : 6*n]

		nInt, nFloat, nonMissing int
	)
	seen := make(map[string]struct{}, len(col.Values))
	for _, v := range col.Values {
		if isMissingReference(v) {
			s.NumNaNs++
			continue
		}
		nonMissing++
		if _, ok := seen[v]; !ok {
			seen[v] = struct{}{}
		}
		if f, ok := parseFloatReference(v); ok {
			numVals = append(numVals, f)
			nFloat++
			if IsInt(v) {
				nInt++
			}
		}
		charC = append(charC, float64(len(v)))
		wordC = append(wordC, float64(countWordsReference(v)))
		stopC = append(stopC, float64(countStopwordsReference(v)))
		wsC = append(wsC, float64(countWhitespaceReference(v)))
		delimC = append(delimC, float64(countDelimitersReference(v)))
	}
	s.NumUnique = len(seen)
	if s.TotalVals > 0 {
		s.PctNaNs = 100 * float64(s.NumNaNs) / float64(s.TotalVals)
		s.PctUnique = 100 * float64(s.NumUnique) / float64(s.TotalVals)
	}
	if nonMissing > 0 {
		s.CastableFloatPct = float64(nFloat) / float64(nonMissing)
		s.CastableIntPct = float64(nInt) / float64(nonMissing)
	}
	s.MeanVal, s.StdVal = meanStd(numVals)
	s.MinVal, s.MaxVal = minMax(numVals)
	s.MeanCharCount, s.StdCharCount = meanStd(charC)
	s.MeanWordCount, s.StdWordCount = meanStd(wordC)
	s.MeanStopwordCount, s.StdStopwordCount = meanStd(stopC)
	s.MeanWhitespaceCount, s.StdWhitespaceCount = meanStd(wsC)
	s.MeanDelimCount, s.StdDelimCount = meanStd(delimC)

	s.SampleHasURL = majorityReference(samples, IsURL)
	s.SampleHasEmail = majorityReference(samples, IsEmail)
	s.SampleHasDelimSeq = majorityReference(samples, HasDelimiterSequence)
	s.SampleHasList = majorityReference(samples, IsList)
	s.SampleHasDate = majorityReference(samples, isDateReference)
	return s
}

func majorityReference(samples []string, pred func(string) bool) bool {
	n, hits := 0, 0
	for _, v := range samples {
		if isMissingReference(v) {
			continue
		}
		n++
		if pred(v) {
			hits++
		}
	}
	return n > 0 && hits*2 > n
}

// statsDiff returns the name of the first Stats field on which a and b
// differ, comparing float fields by their bits (so -0 differs from +0 and
// NaN equals a NaN with the same payload), or "" when they are identical.
func statsDiff(a, b Stats) string {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		fa, fb := va.Field(i), vb.Field(i)
		var same bool
		switch fa.Kind() {
		case reflect.Float64:
			same = math.Float64bits(fa.Float()) == math.Float64bits(fb.Float())
		case reflect.Int:
			same = fa.Int() == fb.Int()
		case reflect.Bool:
			same = fa.Bool() == fb.Bool()
		default:
			panic("statsDiff: unhandled field kind " + fa.Kind().String())
		}
		if !same {
			return va.Type().Field(i).Name
		}
	}
	return ""
}

// checkMatchesReference fails t when Compute and computeReference disagree
// on any bit of any field, or when a Count* helper disagrees with its
// reference on any cell of the column or any sample.
func checkMatchesReference(t *testing.T, col *data.Column, samples []string) {
	t.Helper()
	got, want := Compute(col, samples), computeReference(col, samples)
	if f := statsDiff(got, want); f != "" {
		t.Fatalf("column %q (%d cells): Stats.%s differs\n got: %+v\nwant: %+v", col.Name, len(col.Values), f, got, want)
	}
	for _, vals := range [][]string{col.Values, samples} {
		for _, v := range vals {
			checkCellMatchesReference(t, v)
		}
	}
}

func checkCellMatchesReference(t *testing.T, v string) {
	t.Helper()
	for _, c := range []struct {
		name      string
		got, want int
	}{
		{"CountWords", CountWords(v), countWordsReference(v)},
		{"CountStopwords", CountStopwords(v), countStopwordsReference(v)},
		{"CountWhitespace", CountWhitespace(v), countWhitespaceReference(v)},
		{"CountDelimiters", CountDelimiters(v), countDelimitersReference(v)},
	} {
		if c.got != c.want {
			t.Fatalf("%s(%q) = %d, want %d", c.name, v, c.got, c.want)
		}
	}
	if got, want := data.IsMissing(v), isMissingReference(v); got != want {
		t.Fatalf("IsMissing(%q) = %v, want %v", v, got, want)
	}
	gf, gok := ParseFloat(v)
	wf, wok := parseFloatReference(v)
	if gok != wok || math.Float64bits(gf) != math.Float64bits(wf) {
		t.Fatalf("ParseFloat(%q) = (%v, %v), want (%v, %v)", v, gf, gok, wf, wok)
	}
	if got, want := IsDate(v), isDateReference(v); got != want {
		t.Fatalf("IsDate(%q) = %v, want %v", v, got, want)
	}
}

// referenceStride thins the default corpus for the comparison with the
// slow reference, and the held-out corpus is generated at the same
// fraction of the benchmark's 12,000 columns. TestStatsDigest in
// internal/featurize covers every column of the default corpus end to end.
const referenceStride = 8

func checkCorpusMatchesReference(t *testing.T, corpus []data.LabeledColumn, stride int) {
	var wg sync.WaitGroup
	const shards = 2
	for w := 0; w < shards; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w * stride; i < len(corpus); i += shards * stride {
				col := &corpus[i].Column
				got := Compute(col, col.FirstNDistinct(5))
				want := computeReference(col, col.FirstNDistinct(5))
				if f := statsDiff(got, want); f != "" {
					t.Errorf("column %d %q: Stats.%s differs", i, col.Name, f)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestComputeMatchesReferenceDefaultCorpus(t *testing.T) {
	t.Parallel()
	checkCorpusMatchesReference(t, synth.GenerateCorpus(synth.DefaultCorpusConfig()), referenceStride)
}

// TestComputeMatchesReferenceHeldOut runs a held-out corpus with the seed
// (8919) of the one the serving benchmark's ingest workloads draw from at
// seed 1.
func TestComputeMatchesReferenceHeldOut(t *testing.T) {
	t.Parallel()
	cfg := synth.DefaultCorpusConfig()
	cfg.N = 12000 / referenceStride
	cfg.Seed = 8919
	checkCorpusMatchesReference(t, synth.GenerateCorpus(cfg), 1)
}

func TestComputeMatchesReferenceQuick(t *testing.T) {
	t.Parallel()
	f := func(vals []string, samples []string) bool {
		col := &data.Column{Name: "q", Values: vals}
		return statsDiff(Compute(col, samples), computeReference(col, samples)) == ""
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// referenceEdgeCells are the cells where a byte-level scanner is most likely
// to part ways with the rune-level reference: Unicode whitespace outside
// ASCII, runes whose lower case is ASCII, missing tokens behind padding,
// invalid UTF-8, tokens longer than any lowering buffer, and stopwords
// wrapped in punctuation.
var referenceEdgeCells = []string{
	"", " ", "\t", "\n\v\f\r", "   \t  ", "\u0085", "\u00a0", "\u3000",
	"a\u0085the", "a\u00a0the", "the\u3000of\u3000a", "\u3000NA\u3000",
	"\u00a0null", "\u2028none\u2029",
	"\u212a", "\u212aelvin", "THE \u212a", "m\u0130ss\u0130ng", "M\u0130SS\u0130NG", "\u0130", "th\u0130s",
	"w\u0130th", "\u0130nto", "n/\u212a",
	" NA ", "na", "N/A", "#N/A", "#NULL", "None", "-", "?", " - ", "nan",
	"NaN", "-nan", "+Inf", "inf", "-Infinity", "INFINITY", "infinit",
	"\xff the", "\xff", "the\xff", "\xffNA", "NA\xff", "\xc3", "a\xc3 the",
	"'the'", "THE!!", "(and)", "\"of\"", "...", "!!!", "'", "the,", ",the",
	"the;and|or", "a,b;c|d", "a, b, c", "a||b", ";;",
	strings.Repeat("x", 65), strings.Repeat("THE", 22), strings.Repeat("é", 40),
	"the " + strings.Repeat("y", 64) + " and", strings.Repeat("the ", 30),
	"The quick brown fox jumps over the lazy dog.",
	"Ünïcödé wörds and the ÀCCENTS", "日本語 the テキスト",
	"12", "007", "-3.5e2", "0x1p-2", "1_000", "1,234", "12 34", "2020-01-02",
	"20200102", "15:04", "Jan 2, 2006", "21hrs:15min:3sec", "face", "deny",
	"https://a.com/x", "a@b.io",
}

// FuzzComputeMatchesReference splits its input into cells at '\x1f' and
// compares Compute with computeReference on the resulting column, using its
// first five cells as the samples. The seeds are every edge cell alone and
// every suffix of the edge list as one column, so each run of five edge
// cells is a sample set once.
func FuzzComputeMatchesReference(f *testing.F) {
	for i, v := range referenceEdgeCells {
		f.Add(v)
		f.Add(strings.Join(referenceEdgeCells[i:], "\x1f"))
	}
	f.Fuzz(func(t *testing.T, in string) {
		vals := strings.Split(in, "\x1f")
		samples := vals
		if len(samples) > 5 {
			samples = samples[:5]
		}
		checkMatchesReference(t, &data.Column{Name: "fuzz", Values: vals}, samples)
	})
}
