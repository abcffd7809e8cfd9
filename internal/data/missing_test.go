package data

import (
	"strings"
	"testing"
)

// isMissingReference is the allocating formulation IsMissing replaced; it
// defines what counts as missing.
func isMissingReference(v string) bool {
	return MissingTokens[strings.ToLower(strings.TrimSpace(v))]
}

// missingEdgeCells, the seeds of FuzzIsMissingMatchesReference, pad, case
// and disguise the missing tokens: Unicode spaces, runes whose lower case
// is ASCII (U+0130 lowers to 'i', the Kelvin sign U+212A to 'k'), invalid
// UTF-8, and values just past the token length bound.
var missingEdgeCells = []string{
	"", " ", "\t\n", "NA", " NA ", "nA", "N/A", "#N/A", "#NULL", "-", "?",
	"NaN", "NULL", "None", "MISSING", "MiSsInG", "\u3000NA\u3000",
	"\u00a0null\u0085", "\u2028none\u2029", "m\u0130ss\u0130ng",
	"M\u0130SS\u0130NG", "n\u0130l", "\u212a", "missing!", "missingg",
	"mis sing", "\xffNA", "NA\xff", "\xff", "\xc3", "ná", "\uff2e\uff21",
	"\u0130\u0130\u0130\u0130\u0130\u0130\u0130\u0130", strings.Repeat("x", 40),
	"  missing  ", "-\t", "--", "??", "nil",
}

// TestIsMissingAllocs pins the fast path: an ASCII cell, missing or not,
// and a long non-ASCII cell are classified without allocating.
func TestIsMissingAllocs(t *testing.T) {
	for _, v := range []string{" N/A ", "MISSING", "12.5", "the quick brown fox", "héllo wörld, a long sentence"} {
		if n := testing.AllocsPerRun(100, func() { IsMissing(v) }); n != 0 {
			t.Errorf("IsMissing(%q) allocates %v times", v, n)
		}
	}
}

func FuzzIsMissingMatchesReference(f *testing.F) {
	for _, v := range missingEdgeCells {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v string) {
		if got, want := IsMissing(v), isMissingReference(v); got != want {
			t.Fatalf("IsMissing(%q) = %v, want %v", v, got, want)
		}
	})
}
