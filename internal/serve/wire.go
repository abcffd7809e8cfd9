package serve

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
	"unsafe"

	"sortinghat/internal/data"
)

// The /v1/infer request wire path, shared by sortinghatd and the
// sortinghatgw gateway. ReadInferRequest reads the body once into one
// buffer sized from Content-Length (readBody), and DecodeInferRequest
// decodes the fixed InferRequest shape from it in a single pass. That
// buffer is also the arena every decoded string lives in: a name or cell
// without escapes is a substring of the raw body, and an escaped one is
// unescaped in place over its own raw bytes (its decoded form is never
// longer, except when invalid UTF-8 expands to U+FFFD; only then is it
// copied out). A request therefore costs one body allocation (a few for
// a body over 1 MiB), one slice of all cell strings and one slice of
// columns, instead of one allocation per cell. Anything kept past the
// request (a span attribute, a log line) must clone the strings it
// keeps, or it pins the whole body.
//
// The decoder accepts exactly what encoding/json's Decoder.Decode into
// an InferRequest accepts and yields the same columns;
// FuzzDecodeMatchesJSON holds the two to that. This includes its
// case-insensitive (Unicode simple-folded) key matching, U+FFFD for
// invalid UTF-8 and lone surrogates, ignoring bytes after the top-level
// value, and its duplicate-key behaviour of decoding a repeated array
// into the elements the previous one left.

// maxNestingDepth is encoding/json's limit on nested arrays and objects.
const maxNestingDepth = 10000

// errBodyTooLarge answers a body over maxRequestBody (HTTP 413).
var errBodyTooLarge = errors.New("request body exceeds " + strconv.Itoa(maxRequestBody) + " bytes")

// ReadInferRequest reads and decodes the body of a POST /v1/infer
// request. On failure it returns the status to answer with — 413 for a
// body over the 64 MiB limit, 400 otherwise — and the error to report.
// A body over the limit is always 413, even when a complete JSON value
// precedes the limit (encoding/json would stop reading there). The
// returned strings alias the request's body buffer; see the file
// comment.
func ReadInferRequest(w http.ResponseWriter, r *http.Request) ([]data.Column, int, error) {
	if r.ContentLength > maxRequestBody {
		return nil, http.StatusRequestEntityTooLarge, errBodyTooLarge
	}
	body, err := readBody(http.MaxBytesReader(w, r.Body, maxRequestBody), r.ContentLength)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return nil, http.StatusRequestEntityTooLarge, errBodyTooLarge
		}
		return nil, http.StatusBadRequest, errors.New("reading request: " + err.Error())
	}
	cols, err := DecodeInferRequest(body)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	return cols, http.StatusOK, nil
}

// maxPresizedBody caps the buffer readBody allocates before reading: a
// client declaring a huge Content-Length and then sending little or
// nothing pins only this much. A typical batch (tens of KB) still takes
// one allocation.
const maxPresizedBody = 1 << 20

// readBody reads rd to EOF into one buffer sized from n, the request's
// Content-Length (512 bytes when unknown). At most maxPresizedBody is
// allocated before any byte arrives; past that the buffer doubles only
// when the bytes read so far fill it, and never beyond the declared
// length, so it ends exactly sized and holds at most twice what the
// client actually sent.
func readBody(rd io.Reader, n int64) ([]byte, error) {
	// One spare byte: the read that reports EOF after exactly
	// Content-Length bytes needs room, and must not grow the buffer.
	want := 512
	if n > 0 {
		want = int(min(n, maxRequestBody)) + 1
	}
	buf := make([]byte, 0, min(want, maxPresizedBody))
	for {
		if len(buf) == cap(buf) {
			next := 2 * cap(buf)
			if cap(buf) < want {
				next = min(next, want)
			}
			buf = append(make([]byte, 0, next), buf...)
		}
		m, err := rd.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+m]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// DecodeInferRequest decodes a POST /v1/infer body into its columns. It
// takes ownership of body: escaped strings are unescaped in place, and
// the returned names and values alias body, which must not be modified
// afterwards. A top-level null decodes to no columns, like an object
// without "columns"; the caller rejects an empty batch.
func DecodeInferRequest(body []byte) ([]data.Column, error) {
	d := decoder{buf: body}
	d.ws()
	if d.pos == len(d.buf) {
		return nil, d.errEOF()
	}
	switch d.buf[d.pos] {
	case 'n':
		return nil, d.literal("null")
	case '{':
	default:
		return nil, d.fail("request body is not a JSON object")
	}
	// Every string takes two quote bytes, so half the quote count bounds
	// the cells, and the values of all columns share one allocation. A
	// cell also takes a separator, so a third of the body bounds the
	// cells too: a body of stray quotes costs no more than a valid batch
	// of its size.
	d.vals = make([]string, 0, min(bytes.Count(body, quote)/2, len(body)/3+1))
	var cols []data.Column
	if err := d.enter(); err != nil {
		return nil, err
	}
	for first := true; ; first = false {
		more, err := d.more('}', first)
		if err != nil {
			return nil, err
		}
		if !more {
			return cols, nil
		}
		f, err := d.key()
		if err != nil {
			return nil, err
		}
		if f == "COLUMNS" {
			cols, err = d.columns(cols)
		} else {
			err = d.skip()
		}
		if err != nil {
			return nil, err
		}
	}
}

var quote = []byte{'"'}

// decoder is the state of one DecodeInferRequest call.
type decoder struct {
	buf     []byte // the body, and the arena decoded strings alias
	pos     int
	depth   int      // open arrays and objects, as encoding/json counts them
	vals    []string // every column's values, carved per column
	scratch []byte   // unescape buffer for strings with escapes
	open    []byte   // container kinds ('{' or '[') open inside skip
}

// decodeError is a malformed or mistyped body, reported with the byte
// offset where decoding stopped.
type decodeError struct {
	msg string
	off int
}

func (e *decodeError) Error() string {
	return "decoding request: " + e.msg + " at offset " + strconv.Itoa(e.off)
}

func (d *decoder) fail(msg string) error { return &decodeError{msg: msg, off: d.pos} }

func (d *decoder) errEOF() error { return d.fail("unexpected end of JSON input") }

// unexpected reports the byte at d.pos (or the end of input) as invalid.
func (d *decoder) unexpected() error {
	if d.pos >= len(d.buf) {
		return d.errEOF()
	}
	return d.fail("invalid character " + strconv.QuoteRune(rune(d.buf[d.pos])))
}

// ws skips JSON whitespace.
func (d *decoder) ws() {
	for d.pos < len(d.buf) {
		switch d.buf[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// peek returns the next non-whitespace byte, or 0 at the end of input.
func (d *decoder) peek() byte {
	d.ws()
	if d.pos < len(d.buf) {
		return d.buf[d.pos]
	}
	return 0
}

// enter consumes the '{' or '[' at d.pos, enforcing the nesting limit.
func (d *decoder) enter() error {
	d.pos++
	d.depth++
	if d.depth > maxNestingDepth {
		return d.fail("exceeded max depth")
	}
	return nil
}

// more advances to the next member or element of the open container
// ending in close: it consumes the separating ',' (or, on the first
// call, nothing) and reports true, or consumes close and reports false.
func (d *decoder) more(close byte, first bool) (bool, error) {
	switch d.peek() {
	case close:
		d.pos++
		d.depth--
		return false, nil
	case ',':
		if !first {
			d.pos++
			return true, nil
		}
	default:
		if first {
			return true, nil
		}
	}
	return false, d.unexpected()
}

// key reads an object key and its ':' and returns the key folded the way
// encoding/json matches struct fields: unicode.ToUpper(unicode.ToLower(r))
// per rune, so "Columns", "VALUES" and "valueſ" (U+017F) all match.
func (d *decoder) key() (string, error) {
	if d.peek() != '"' {
		return "", d.unexpected()
	}
	k, err := d.str()
	if err != nil {
		return "", err
	}
	if d.peek() != ':' {
		return "", d.unexpected()
	}
	d.pos++
	if len(k) > 7*3 {
		return "", nil // "columns": 7 runes, each folded from at most 3 bytes
	}
	var arr [7 * 3]byte
	f := arr[:0]
	for i := 0; i < len(k); {
		c := k[i]
		if c < utf8.RuneSelf {
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			f = append(f, c)
			i++
			continue
		}
		r, n := utf8.DecodeRuneInString(k[i:])
		f = utf8.AppendRune(f, unicode.ToUpper(unicode.ToLower(r)))
		i += n
	}
	switch string(f) {
	case "COLUMNS":
		return "COLUMNS", nil
	case "NAME":
		return "NAME", nil
	case "VALUES":
		return "VALUES", nil
	}
	return "", nil
}

// columns decodes the "columns" member into cur, which holds what an
// earlier "columns" member of the same object left (nil the first time).
func (d *decoder) columns(cur []data.Column) ([]data.Column, error) {
	switch d.peek() {
	case 'n':
		return nil, d.literal("null")
	case '[':
	default:
		return nil, d.typeError("columns", "an array of objects")
	}
	if err := d.enter(); err != nil {
		return nil, err
	}
	if cap(cur) == 0 {
		cur = make([]data.Column, 0, 8)
	}
	i := 0
	for first := true; ; first = false {
		more, err := d.more(']', first)
		if err != nil {
			return nil, err
		}
		if !more {
			break
		}
		cur = extend(cur, i)
		switch d.peek() {
		case '{':
			err = d.column(&cur[i])
		case 'n':
			err = d.literal("null") // leaves the element as it was
		default:
			err = d.typeError("column", "an object")
		}
		if err != nil {
			return nil, err
		}
		i++
	}
	if i == 0 {
		return []data.Column{}, nil
	}
	return cur[:i], nil
}

// column decodes one column object into col.
func (d *decoder) column(col *data.Column) error {
	if err := d.enter(); err != nil {
		return err
	}
	for first := true; ; first = false {
		more, err := d.more('}', first)
		if err != nil {
			return err
		}
		if !more {
			return nil
		}
		f, err := d.key()
		if err != nil {
			return err
		}
		switch f {
		case "NAME":
			switch d.peek() {
			case '"':
				col.Name, err = d.str()
			case 'n':
				err = d.literal("null") // leaves the name as it was
			default:
				err = d.typeError("name", "a string")
			}
		case "VALUES":
			col.Values, err = d.values(col.Values)
		default:
			err = d.skip()
		}
		if err != nil {
			return err
		}
	}
}

// values decodes a "values" member into cur. A first "values" member
// (cur has no capacity) appends to the request-wide d.vals and carves
// its slice from there; a repeated one decodes into cur in place, as
// encoding/json does.
func (d *decoder) values(cur []string) ([]string, error) {
	switch d.peek() {
	case 'n':
		return nil, d.literal("null")
	case '[':
	default:
		return nil, d.typeError("values", "an array of strings")
	}
	if err := d.enter(); err != nil {
		return nil, err
	}
	start, i := len(d.vals), 0
	for first := true; ; first = false {
		more, err := d.more(']', first)
		if err != nil {
			return nil, err
		}
		if !more {
			break
		}
		var s string
		switch d.peek() {
		case '"':
			if s, err = d.str(); err != nil {
				return nil, err
			}
		case 'n':
			if err := d.literal("null"); err != nil {
				return nil, err
			}
			if cap(cur) > 0 {
				cur = extend(cur, i) // null leaves the element as it was
				i++
				continue
			}
		default:
			return nil, d.typeError("value", "a string")
		}
		if cap(cur) > 0 {
			cur = extend(cur, i)
			cur[i] = s
		} else {
			d.vals = append(d.vals, s)
		}
		i++
	}
	switch {
	case i == 0:
		return []string{}, nil
	case cap(cur) > 0:
		return cur[:i], nil
	}
	end := len(d.vals)
	return d.vals[start:end:end], nil
}

// extend makes index i of s addressable, growing s by one element the
// way encoding/json grows a slice it decodes into: within capacity the
// element keeps whatever an earlier decode left there.
func extend[T any](s []T, i int) []T {
	switch {
	case i < len(s):
		return s
	case i < cap(s):
		return s[:i+1]
	}
	var zero T
	return append(s, zero)
}

// typeError rejects a value of the wrong JSON type for field.
func (d *decoder) typeError(field, want string) error {
	return d.fail(field + " must be " + want)
}

// literal consumes the literal word (true, false or null) at d.pos.
func (d *decoder) literal(word string) error {
	for i := 0; i < len(word); i++ {
		if d.pos >= len(d.buf) || d.buf[d.pos] != word[i] {
			return d.unexpected()
		}
		d.pos++
	}
	return nil
}

// plain marks the ASCII bytes a string can hold unescaped and that need
// no decoding: everything but '"', '\\' and control bytes.
var plain = func() (t [utf8.RuneSelf]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// str reads the string at d.pos and returns its decoded value, aliasing
// d.buf (see DecodeInferRequest).
func (d *decoder) str() (string, error) {
	start := d.pos + 1
	buf := d.buf
	i := start
	for i < len(buf) {
		c := buf[i]
		if c < utf8.RuneSelf {
			if plain[c] {
				i++
				continue
			}
			if c != '"' {
				break // an escape or a control byte
			}
			d.pos = i + 1
			if i == start {
				return "", nil
			}
			return unsafe.String(&buf[start], i-start), nil
		}
		r, n := utf8.DecodeRune(buf[i:])
		if r == utf8.RuneError && n == 1 {
			break // invalid UTF-8
		}
		i += n
	}
	return d.strSlow(start, i)
}

// strSlow finishes a string whose bytes from i on need decoding:
// escapes, invalid UTF-8 (each bad byte becomes U+FFFD, as in
// encoding/json) or an error. buf[start:i] is already known plain.
func (d *decoder) strSlow(start, i int) (string, error) {
	buf := d.buf
	if d.scratch == nil {
		d.scratch = make([]byte, 0, 64) // most escaped cells fit without regrowing
	}
	out := append(d.scratch[:0], buf[start:i]...)
	for {
		if i >= len(buf) {
			d.pos = i
			return "", d.errEOF()
		}
		c := buf[i]
		switch {
		case c == '"':
			d.scratch = out
			d.pos = i + 1
			if len(out) == 0 {
				return "", nil
			}
			if len(out) > i-start {
				return string(out), nil // expanded past its raw bytes
			}
			copy(buf[start:], out)
			return unsafe.String(&buf[start], len(out)), nil
		case c == '\\':
			if i+1 >= len(buf) {
				d.pos = i + 1
				return "", d.errEOF()
			}
			switch e := buf[i+1]; e {
			case '"', '\\', '/':
				out = append(out, e)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r := hex4(buf, i+2)
				if r < 0 {
					d.pos = i
					return "", d.fail("invalid \\u escape")
				}
				i += 6
				if utf16.IsSurrogate(r) {
					// A valid pair is consumed whole; anything else
					// decodes to U+FFFD and leaves the next escape.
					if dec := utf16.DecodeRune(r, escapedRune(buf, i)); dec != unicode.ReplacementChar {
						r = dec
						i += 6
					} else {
						r = unicode.ReplacementChar
					}
				}
				out = utf8.AppendRune(out, r)
				continue
			default:
				d.pos = i + 1
				return "", d.fail("invalid escape " + strconv.QuoteRune(rune(e)))
			}
			i += 2
		case c < 0x20:
			d.pos = i
			return "", d.fail("invalid control byte in string")
		case c < utf8.RuneSelf:
			out = append(out, c)
			i++
		default:
			r, n := utf8.DecodeRune(buf[i:])
			if r == utf8.RuneError && n == 1 {
				out = utf8.AppendRune(out, unicode.ReplacementChar)
			} else {
				out = append(out, buf[i:i+n]...)
			}
			i += n
		}
	}
}

// escapedRune decodes the \uXXXX escape at buf[i:], or returns -1.
func escapedRune(buf []byte, i int) rune {
	if i+1 >= len(buf) || buf[i] != '\\' || buf[i+1] != 'u' {
		return -1
	}
	return hex4(buf, i+2)
}

// hex4 decodes the four hex digits at buf[i:], or returns -1.
func hex4(buf []byte, i int) rune {
	if i+4 > len(buf) {
		return -1
	}
	var r rune
	for _, c := range buf[i : i+4] {
		v := hexVal(c)
		if v < 0 {
			return -1
		}
		r = r<<4 | v
	}
	return r
}

func hexVal(c byte) rune {
	switch {
	case '0' <= c && c <= '9':
		return rune(c - '0')
	case 'a' <= c && c <= 'f':
		return rune(c - 'a' + 10)
	case 'A' <= c && c <= 'F':
		return rune(c - 'A' + 10)
	}
	return -1
}

// skip validates and discards one JSON value of any shape: the value of
// an unknown key, or a mistyped one. It walks nested containers with an
// explicit stack, bounded by the nesting limit.
func (d *decoder) skip() error {
	base := len(d.open)
	defer func() { d.open = d.open[:base] }()
	for {
		// A value is expected at d.pos.
		switch c := d.peek(); c {
		case '{', '[':
			if err := d.enter(); err != nil {
				return err
			}
			d.open = append(d.open, c)
			if d.peek() == c+2 { // '}' or ']': an empty container
				break
			}
			if c == '{' {
				if err := d.memberKey(); err != nil {
					return err
				}
			}
			continue
		case '"':
			if err := d.skipString(); err != nil {
				return err
			}
		case 't':
			if err := d.literal("true"); err != nil {
				return err
			}
		case 'f':
			if err := d.literal("false"); err != nil {
				return err
			}
		case 'n':
			if err := d.literal("null"); err != nil {
				return err
			}
		default:
			if err := d.number(); err != nil {
				return err
			}
		}
		// A value ended: close containers until one continues.
		for {
			if len(d.open) == base {
				return nil
			}
			top := d.open[len(d.open)-1]
			c := d.peek()
			if c == top+2 {
				d.pos++
				d.depth--
				d.open = d.open[:len(d.open)-1]
				continue
			}
			if c != ',' {
				return d.unexpected()
			}
			d.pos++
			if top == '{' {
				if err := d.memberKey(); err != nil {
					return err
				}
			}
			break
		}
	}
}

// memberKey validates an object key and its ':' inside skip.
func (d *decoder) memberKey() error {
	if d.peek() != '"' {
		return d.unexpected()
	}
	if err := d.skipString(); err != nil {
		return err
	}
	if d.peek() != ':' {
		return d.unexpected()
	}
	d.pos++
	return nil
}

// skipString validates the string at d.pos without decoding it: any
// byte but '"', '\\' and control bytes, or a valid escape.
func (d *decoder) skipString() error {
	buf := d.buf
	for i := d.pos + 1; i < len(buf); {
		c := buf[i]
		switch {
		case c == '"':
			d.pos = i + 1
			return nil
		case c == '\\':
			if i+1 >= len(buf) {
				d.pos = i + 1
				return d.errEOF()
			}
			switch buf[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				if hex4(buf, i+2) < 0 {
					d.pos = i
					return d.fail("invalid \\u escape")
				}
				i += 6
			default:
				d.pos = i + 1
				return d.unexpected()
			}
		case c < 0x20:
			d.pos = i
			return d.unexpected()
		default:
			i++
		}
	}
	d.pos = len(buf)
	return d.errEOF()
}

// number validates a JSON number at d.pos:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (d *decoder) number() error {
	buf := d.buf
	i := d.pos
	digits := func() bool {
		s := i
		for i < len(buf) && '0' <= buf[i] && buf[i] <= '9' {
			i++
		}
		return i > s
	}
	fail := func() error {
		d.pos = i
		return d.unexpected()
	}
	if i < len(buf) && buf[i] == '-' {
		i++
	}
	switch {
	case i >= len(buf):
		return fail()
	case buf[i] == '0':
		i++
	case '1' <= buf[i] && buf[i] <= '9':
		digits()
	default:
		return fail()
	}
	if i < len(buf) && buf[i] == '.' {
		i++
		if !digits() {
			return fail()
		}
	}
	if i < len(buf) && (buf[i] == 'e' || buf[i] == 'E') {
		i++
		if i < len(buf) && (buf[i] == '+' || buf[i] == '-') {
			i++
		}
		if !digits() {
			return fail()
		}
	}
	d.pos = i
	return nil
}

// AppendInferRequest appends the POST /v1/infer JSON body of cols to dst
// and returns the extended slice: the encoding json.Marshal gives an
// InferRequest, except that '<', '>', '&', U+2028 and U+2029 are left
// unescaped. Both decode to the same columns; each invalid UTF-8 byte is
// written as \ufffd, as json.Marshal writes it.
func AppendInferRequest(dst []byte, cols []data.Column) []byte {
	// Grow dst once, to the encoding's length when nothing needs
	// escaping, rather than by repeated appends.
	size := len(`{"columns":[]}`)
	for i := range cols {
		size += len(`{"name":"","values":[]},`) + len(cols[i].Name)
		for _, v := range cols[i].Values {
			size += len(`"",`) + len(v)
		}
	}
	if cap(dst)-len(dst) < size {
		dst = append(make([]byte, 0, len(dst)+size), dst...)
	}
	dst = append(dst, `{"columns":[`...)
	for i := range cols {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"name":`...)
		dst = appendString(dst, cols[i].Name)
		dst = append(dst, `,"values":`...)
		if cols[i].Values == nil {
			dst = append(dst, "null"...)
		} else {
			dst = append(dst, '[')
			for j, v := range cols[i].Values {
				if j > 0 {
					dst = append(dst, ',')
				}
				dst = appendString(dst, v)
			}
			dst = append(dst, ']')
		}
		dst = append(dst, '}')
	}
	return append(dst, "]}"...)
}

// appendString appends s as a JSON string.
func appendString(dst []byte, s string) []byte {
	const hexDigits = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if plain[c] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, n := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && n == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i++
			start = i
			continue
		}
		i += n
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
