// Package data provides the raw tabular data model for the benchmark:
// columns of string cells, labeled columns, datasets, and CSV input/output.
// It is the input layer of the paper's task setup (Section 2.1): a raw
// column is an attribute name plus uninterpreted cell values, and a
// labeled column adds the ground-truth feature type and source-file
// identity used by the leave-datafile-out protocol of Table 7.
//
// Everything upstream of feature type inference is stringly typed on
// purpose: the benchmark's entire premise is that files arrive as flat CSVs
// whose cells are uninterpreted text, and the semantic gap between syntactic
// attribute types and ML feature types must be bridged by inference.
package data

import (
	"strings"
	"unicode/utf8"

	"sortinghat/ftype"
)

// MissingTokens are cell values treated as missing (NaN) throughout the
// benchmark, mirroring the common NA markers recognised by data prep tools.
// Every token is lower-case ASCII. The table is read-only: IsMissing derives
// its length bound from it once, at package initialisation.
var MissingTokens = map[string]bool{
	"":        true,
	"na":      true,
	"n/a":     true,
	"nan":     true,
	"null":    true,
	"none":    true,
	"-":       true,
	"?":       true,
	"#null":   true,
	"#n/a":    true,
	"missing": true,
}

// maxMissingLen is the byte length of the longest missing token.
var maxMissingLen int

func init() {
	for tok := range MissingTokens {
		maxMissingLen = max(maxMissingLen, len(tok))
	}
}

// IsMissing reports whether a raw cell value counts as missing: whether it
// lowercases, with surrounding whitespace trimmed, to one of MissingTokens.
//
// Every cell of every column passes through here, so the common cases make
// no allocation. A trimmed ASCII value that is longer than the longest
// token is rejected without lowering; any other is lowered into a stack
// buffer. Only a short value with a non-ASCII
// byte takes strings.ToLower, whose Unicode case mapping can turn it into
// an ASCII token ("mİssİng" lowers to "missing"). A value of more than
// utf8.UTFMax*maxMissingLen bytes is rejected outright: it has more runes
// than the longest token has bytes, and lowering maps each rune to a rune
// of at least one byte.
func IsMissing(v string) bool {
	t := strings.TrimSpace(v)
	if len(t) > utf8.UTFMax*maxMissingLen {
		return false
	}
	var buf [16]byte
	for i := 0; i < len(t); i++ {
		c := t[i]
		if i == maxMissingLen {
			return false // an ASCII prefix longer than every token
		}
		if c >= utf8.RuneSelf || i == len(buf) {
			return MissingTokens[strings.ToLower(t)]
		}
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		buf[i] = c
	}
	return MissingTokens[string(buf[:len(t)])]
}

// Column is one attribute of a raw data file: a name and its cell values in
// file order. Values are raw strings; missing cells are detected lazily via
// IsMissing rather than normalised away, because several inference
// approaches key on the literal missing token (e.g. "#NULL!").
type Column struct {
	Name   string
	Values []string
}

// NumValues returns the number of cells in the column.
func (c *Column) NumValues() int { return len(c.Values) }

// NonMissing returns the column's non-missing values, preserving order.
func (c *Column) NonMissing() []string {
	out := make([]string, 0, len(c.Values))
	for _, v := range c.Values {
		if !IsMissing(v) {
			out = append(out, v)
		}
	}
	return out
}

// DistinctNonMissing returns the column's distinct non-missing values in
// first-occurrence order.
func (c *Column) DistinctNonMissing() []string {
	seen := make(map[string]bool, len(c.Values))
	out := make([]string, 0, len(c.Values))
	for _, v := range c.Values {
		if IsMissing(v) || seen[v] {
			continue
		}
		seen[v] = true
		out = append(out, v)
	}
	return out
}

// FirstNDistinct returns the first n distinct non-missing values in
// first-occurrence order — the prefix DistinctNonMissing would produce,
// without scanning past the n-th find or retaining the full distinct set.
// The serve hot path uses it for deterministic sampling: on low-cardinality
// columns (the common case) it stops after a handful of cells.
func (c *Column) FirstNDistinct(n int) []string {
	if n <= 0 {
		return nil
	}
	seen := make(map[string]bool, n)
	out := make([]string, 0, n)
	for _, v := range c.Values {
		if IsMissing(v) || seen[v] {
			continue
		}
		seen[v] = true
		out = append(out, v)
		if len(out) == n {
			break
		}
	}
	return out
}

// LabeledColumn is a benchmark example: a raw column together with its
// hand-assigned (here: generator-assigned) ground-truth feature type and the
// identifier of the source file it came from. FileID supports the paper's
// leave-datafile-out cross-validation, which groups columns by source file.
type LabeledColumn struct {
	Column
	Label  ftype.FeatureType
	FileID int
}

// Dataset is a rectangular table: named columns of equal length. It models
// one raw CSV file in the downstream benchmark suite.
type Dataset struct {
	Name    string
	Columns []Column
}

// NumRows returns the number of rows (0 for an empty dataset).
func (d *Dataset) NumRows() int {
	if len(d.Columns) == 0 {
		return 0
	}
	return len(d.Columns[0].Values)
}

// NumCols returns the number of columns.
func (d *Dataset) NumCols() int { return len(d.Columns) }

// ColumnIndex returns the index of the named column, or -1 if absent.
func (d *Dataset) ColumnIndex(name string) int {
	for i := range d.Columns {
		if d.Columns[i].Name == name {
			return i
		}
	}
	return -1
}

// Column returns a pointer to the named column, or nil if absent.
func (d *Dataset) Column(name string) *Column {
	if i := d.ColumnIndex(name); i >= 0 {
		return &d.Columns[i]
	}
	return nil
}

// DropColumn returns a copy of the dataset without column index i.
// It panics if i is out of range.
func (d *Dataset) DropColumn(i int) *Dataset {
	out := &Dataset{Name: d.Name, Columns: make([]Column, 0, len(d.Columns)-1)}
	for j := range d.Columns {
		if j != i {
			out.Columns = append(out.Columns, d.Columns[j])
		}
	}
	return out
}

// Row assembles row r as a slice of cells in column order.
func (d *Dataset) Row(r int) []string {
	row := make([]string, len(d.Columns))
	for c := range d.Columns {
		row[c] = d.Columns[c].Values[r]
	}
	return row
}

// Subset returns a new dataset containing only the given row indices, in the
// given order. Column names are shared; value slices are copied.
func (d *Dataset) Subset(rows []int) *Dataset {
	out := &Dataset{Name: d.Name, Columns: make([]Column, len(d.Columns))}
	for c := range d.Columns {
		vals := make([]string, len(rows))
		for i, r := range rows {
			vals[i] = d.Columns[c].Values[r]
		}
		out.Columns[c] = Column{Name: d.Columns[c].Name, Values: vals}
	}
	return out
}
