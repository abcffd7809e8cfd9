package featurize

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"os"
	"strings"
	"sync"
	"testing"

	"sortinghat/internal/data"
	"sortinghat/internal/synth"
)

const digestFile = "testdata/stats_digest.txt"

// statsDigest hashes the Float64bits of the stats vector of
// ExtractFirstN(col, SampleCount), the serve path's base
// featurization, for every column of corpus in order.
func statsDigest(corpus []data.LabeledColumn) string {
	vecs := make([][]float64, len(corpus))
	var wg sync.WaitGroup
	const shards = 2
	for w := 0; w < shards; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(corpus); i += shards {
				b := ExtractFirstN(&corpus[i].Column, SampleCount)
				vecs[i] = b.Stats.Vector()
			}
		}(w)
	}
	wg.Wait()
	h := sha256.New()
	var buf [8]byte
	for _, v := range vecs {
		for _, x := range v {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
			_, _ = h.Write(buf[:]) // a hash.Hash never returns an error
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestStatsDigest pins the stats vectors of the whole default corpus to a
// SHA-256 recorded before the single-pass cell scanner replaced the
// multi-pass counters. Any change to a single bit of any feature of any
// column fails it. Update testdata/stats_digest.txt with the digest from
// the failure message only when the features change on purpose.
func TestStatsDigest(t *testing.T) {
	t.Parallel()
	got := statsDigest(synth.GenerateCorpus(synth.DefaultCorpusConfig()))
	want, err := os.ReadFile(digestFile)
	if err != nil {
		t.Fatal(err)
	}
	if got != strings.TrimSpace(string(want)) {
		t.Fatalf("stats digest of the default corpus = %s, want %s", got, strings.TrimSpace(string(want)))
	}
}
