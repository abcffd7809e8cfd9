package stats

import (
	"math"
	"sync"

	"sortinghat/internal/data"
)

// Stats holds the descriptive statistics extracted from one raw column
// during base featurization. The field set follows Appendix E of the paper:
// counts of values/NaNs/distincts, moments of the numeric casts, moments of
// per-value character/word/stopword/whitespace/delimiter counts, min/max,
// and sample-based boolean checks for URL, email, delimiter sequences,
// lists, and timestamps.
type Stats struct {
	TotalVals int // total number of cells

	NumNaNs int     // absolute number of missing cells
	PctNaNs float64 // percentage of missing cells (0..100)

	NumUnique int     // distinct non-missing values
	PctUnique float64 // distinct as a percentage of total cells (0..100)

	// Moments and range of the values castable to a plain number.
	MeanVal, StdVal float64
	MinVal, MaxVal  float64

	// Fraction (0..1) of non-missing values castable to float / plain int.
	CastableFloatPct float64
	CastableIntPct   float64

	// Moments of per-value character counts.
	MeanCharCount, StdCharCount float64
	// Moments of per-value whitespace-separated word counts.
	MeanWordCount, StdWordCount float64
	// Moments of per-value stopword counts.
	MeanStopwordCount, StdStopwordCount float64
	// Moments of per-value whitespace-character counts.
	MeanWhitespaceCount, StdWhitespaceCount float64
	// Moments of per-value delimiter-character counts.
	MeanDelimCount, StdDelimCount float64

	// Regular-expression and parser checks on the sampled values
	// (true when the majority of the non-missing samples match).
	SampleHasURL      bool
	SampleHasEmail    bool
	SampleHasDelimSeq bool
	SampleHasList     bool
	SampleHasDate     bool
}

// VectorDim is the dimensionality of the numeric encoding of Stats.
const VectorDim = 27

// Vector encodes the stats as a fixed-length float vector for ML models.
// Large magnitudes (means over raw values) are log-compressed to keep
// scale-sensitive models stable; booleans map to {0,1}.
func (s *Stats) Vector() []float64 {
	return s.AppendVector(make([]float64, 0, VectorDim))
}

// AppendVector appends the VectorDim-dimension encoding of s to dst and
// returns the extended slice. It is the allocation-free form of Vector for
// callers assembling a larger feature vector in one buffer.
func (s *Stats) AppendVector(dst []float64) []float64 {
	b := func(v bool) float64 {
		if v {
			return 1
		}
		return 0
	}
	return append(dst,
		logCompress(float64(s.TotalVals)),
		logCompress(float64(s.NumNaNs)),
		s.PctNaNs,
		logCompress(float64(s.NumUnique)),
		s.PctUnique,
		logCompress(s.MeanVal),
		logCompress(s.StdVal),
		logCompress(s.MinVal),
		logCompress(s.MaxVal),
		s.CastableFloatPct,
		s.CastableIntPct,
		s.MeanCharCount,
		s.StdCharCount,
		s.MeanWordCount,
		s.StdWordCount,
		s.MeanStopwordCount,
		s.StdStopwordCount,
		s.MeanWhitespaceCount,
		s.StdWhitespaceCount,
		s.MeanDelimCount,
		s.StdDelimCount,
		b(s.SampleHasURL),
		b(s.SampleHasEmail),
		b(s.SampleHasDelimSeq),
		b(s.SampleHasList),
		b(s.SampleHasDate),
		b(s.NumUnique == 1), // single-valued column indicator
	)
}

// VectorNames returns the human-readable names of the Vector dimensions, in
// order. Useful for feature-importance reporting and ablations.
func VectorNames() []string {
	return []string{
		"log_total_vals", "log_num_nans", "pct_nans", "log_num_unique",
		"pct_unique", "log_mean_val", "log_std_val", "log_min_val",
		"log_max_val", "castable_float_pct", "castable_int_pct",
		"mean_char_count", "std_char_count", "mean_word_count",
		"std_word_count", "mean_stopword_count", "std_stopword_count",
		"mean_whitespace_count", "std_whitespace_count", "mean_delim_count",
		"std_delim_count", "sample_has_url", "sample_has_email",
		"sample_has_delim_seq", "sample_has_list", "sample_has_date",
		"is_constant",
	}
}

// logCompress maps a possibly huge magnitude to a compact signed log scale.
func logCompress(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Copysign(math.Log1p(math.Abs(v)), v)
}

// Compute extracts the full descriptive statistics for a column, using the
// provided sample values for the regex/timestamp checks. Base
// featurization passes its 5 sampled distinct values: random ones in
// featurize.Extract, the first 5 in column order on the serve path
// (featurize.ExtractFirstN).
//
// Each cell is classified once: IsMissing on its trimmed ends, the numeric
// cast behind cheap screens, and one scanCell walk for the word, stopword,
// whitespace and delimiter counts. The distinct set and the six per-value
// series come from a pool, so a column costs no allocation for them.
func Compute(col *data.Column, samples []string) Stats {
	var s Stats
	s.TotalVals = len(col.Values)

	n := len(col.Values)
	sc := getScratch(n)
	defer putScratch(sc)
	// Each series gets a full-capacity slot of the one backing array
	// (three-index slice), so the appends below stay in place and can never
	// grow into a neighbour's slot.
	backing := sc.series[:6*n]
	var (
		numVals = backing[0*n : 0*n : 1*n]
		charC   = backing[1*n : 1*n : 2*n]
		wordC   = backing[2*n : 2*n : 3*n]
		stopC   = backing[3*n : 3*n : 4*n]
		wsC     = backing[4*n : 4*n : 5*n]
		delimC  = backing[5*n : 5*n : 6*n]

		nInt, nFloat, nonMissing int
	)
	for _, v := range col.Values {
		if data.IsMissing(v) {
			s.NumNaNs++
			continue
		}
		nonMissing++
		sc.seen[v] = struct{}{}
		if f, ok := ParseFloat(v); ok {
			numVals = append(numVals, f)
			nFloat++
			if IsInt(v) {
				nInt++
			}
		}
		c := scanCell(v)
		charC = append(charC, float64(len(v)))
		wordC = append(wordC, float64(c.words))
		stopC = append(stopC, float64(c.stopwords))
		wsC = append(wsC, float64(c.whitespace))
		delimC = append(delimC, float64(c.delims))
	}
	s.NumUnique = len(sc.seen)
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

	// Each flag holds when its check passes on more than half of the
	// non-missing samples (and on at least one).
	var nSamples, url, email, delimSeq, list, date int
	for _, v := range samples {
		if data.IsMissing(v) {
			continue
		}
		nSamples++
		url += b2i(IsURL(v))
		email += b2i(IsEmail(v))
		delimSeq += b2i(HasDelimiterSequence(v))
		list += b2i(IsList(v))
		date += b2i(IsDate(v))
	}
	majority := func(hits int) bool { return nSamples > 0 && hits*2 > nSamples }
	s.SampleHasURL = majority(url)
	s.SampleHasEmail = majority(email)
	s.SampleHasDelimSeq = majority(delimSeq)
	s.SampleHasList = majority(list)
	s.SampleHasDate = majority(date)
	return s
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// scratch is Compute's per-column working memory: the distinct-value set
// and the backing array of the six per-value series.
type scratch struct {
	seen   map[string]struct{}
	series []float64
}

// maxPooledCells bounds the columns whose scratch goes back to the pool.
// A map keeps its buckets after clear and clear costs time in proportion to
// them, so one huge column would otherwise pin its memory and slow the
// clear of every small column after it. A bigger column gets fresh scratch
// and drops it after use.
const maxPooledCells = 4096

var scratchPool = sync.Pool{New: func() any {
	return &scratch{seen: make(map[string]struct{})}
}}

// getScratch returns empty scratch with room for a column of n cells.
func getScratch(n int) *scratch {
	if n > maxPooledCells {
		return &scratch{seen: make(map[string]struct{}, n), series: make([]float64, 6*n)}
	}
	sc := scratchPool.Get().(*scratch)
	if cap(sc.series) < 6*n {
		sc.series = make([]float64, 6*n)
	}
	return sc
}

// putScratch clears sc and returns it to the pool, unless it was sized for
// a column over maxPooledCells.
func putScratch(sc *scratch) {
	if cap(sc.series) > 6*maxPooledCells {
		return
	}
	clear(sc.seen)
	scratchPool.Put(sc)
}

func meanStd(vals []float64) (mean, std float64) {
	if len(vals) == 0 {
		return 0, 0
	}
	for _, v := range vals {
		mean += v
	}
	mean /= float64(len(vals))
	if len(vals) == 1 {
		return mean, 0
	}
	for _, v := range vals {
		d := v - mean
		std += d * d
	}
	std = math.Sqrt(std / float64(len(vals)))
	return mean, std
}

func minMax(vals []float64) (lo, hi float64) {
	if len(vals) == 0 {
		return 0, 0
	}
	lo, hi = vals[0], vals[0]
	for _, v := range vals[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}
