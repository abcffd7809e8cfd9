package stats

import (
	"testing"
	"unicode"

	"sortinghat/internal/data"
)

// TestASCIIClassSpace pins the scanner's ASCII space class to
// unicode.IsSpace, which decides word boundaries for every other rune.
func TestASCIIClassSpace(t *testing.T) {
	for b := rune(0); b < 0x80; b++ {
		if got, want := asciiClass[b]&classSpace != 0, unicode.IsSpace(b); got != want {
			t.Errorf("byte %#x: space class %v, unicode.IsSpace %v", b, got, want)
		}
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestComputeAllocs pins the pooled scratch: once the pool is warm, a
// column of ASCII words and numbers costs Compute no allocation. (A sample
// with digits and separators, such as "12.5", still costs the *ParseError
// of every date layout it fails.)
func TestComputeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops items at random, so pooled scratch is reallocated")
	}
	col := &data.Column{Name: "c", Values: []string{
		"The quick brown fox", "NA", "12.5", "jumps over the lazy dog", "", "7",
		"a, b; c | d", "The quick brown fox", "face", "N/A",
	}}
	samples := []string{"The quick brown fox", "7", "a, b; c | d", "face", "N/A"}
	Compute(col, samples)
	if n := testing.AllocsPerRun(100, func() { Compute(col, samples) }); n != 0 {
		t.Errorf("Compute allocates %v times per column", n)
	}
}
