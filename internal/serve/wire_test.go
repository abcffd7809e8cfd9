package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"sortinghat/internal/data"
)

// referenceRead is the /v1/infer body handling the decoder replaced:
// encoding/json's Decoder over the size-limited body, 413 for an
// over-limit body and 400 for anything else it rejects.
func referenceRead(body []byte) (*InferRequest, int) {
	rec := httptest.NewRecorder()
	r := httptest.NewRequest(http.MethodPost, "/v1/infer", bytes.NewReader(body))
	var req InferRequest
	if err := json.NewDecoder(http.MaxBytesReader(rec, r.Body, maxRequestBody)).Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return nil, http.StatusRequestEntityTooLarge
		}
		return nil, http.StatusBadRequest
	}
	return &req, http.StatusOK
}

// checkDecodeMatchesJSON holds ReadInferRequest to referenceRead on one
// body: the same status, and on success the same columns, names and
// values byte for byte, with nil and empty slices kept apart.
func checkDecodeMatchesJSON(t *testing.T, body []byte) {
	t.Helper()
	want, wantStatus := referenceRead(body)
	r := httptest.NewRequest(http.MethodPost, "/v1/infer", bytes.NewReader(bytes.Clone(body)))
	got, status, err := ReadInferRequest(httptest.NewRecorder(), r)
	if status != wantStatus {
		t.Fatalf("body %q: status %d (%v), encoding/json gives %d", body, status, err, wantStatus)
	}
	if wantStatus != http.StatusOK {
		return
	}
	if (got == nil) != (want.Columns == nil) || len(got) != len(want.Columns) {
		t.Fatalf("body %q: columns %#v, encoding/json gives %#v", body, got, want.Columns)
	}
	for i, w := range want.Columns {
		g := got[i]
		if g.Name != w.Name || (g.Values == nil) != (w.Values == nil) || len(g.Values) != len(w.Values) {
			t.Fatalf("body %q: column %d = %#v, encoding/json gives %#v", body, i, g, w)
		}
		for j := range w.Values {
			if g.Values[j] != w.Values[j] {
				t.Fatalf("body %q: column %d value %d = %q, encoding/json gives %q", body, i, j, g.Values[j], w.Values[j])
			}
		}
	}
}

// FuzzDecodeMatchesJSON is the differential check of the one-pass
// decoder against encoding/json: for any body within the size limit,
// both accept with identical columns or both reject with the same
// status class. The committed corpus (testdata/fuzz) seeds escapes,
// surrogates, invalid UTF-8, raw control bytes, case-variant and
// duplicate keys, deep unknown values, nulls, numbers, trailing bytes and
// empty bodies. The one deliberate difference lies outside the fuzzed
// domain: a body over the 64 MiB limit is 413 even when a complete JSON
// value precedes the limit, where encoding/json stops reading early and
// accepts it.
func FuzzDecodeMatchesJSON(f *testing.F) {
	f.Add([]byte(`{"columns":[{"name":"age","values":["23","41",""]}]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecodeMatchesJSON(t, body)
	})
}

// TestDecodeMatchesJSONCases runs the differential check over the cases
// where encoding/json's behaviour is least obvious, so they hold in
// every tier-1 run, not only under the fuzzer.
func TestDecodeMatchesJSONCases(t *testing.T) {
	for _, body := range []string{
		``, ` `, "\t\r\n", `null`, `null x`, `nul`, `{}`, `{} trailing`, `{"columns":[]}`,
		`{"columns":null}`, `[]`, `"x"`, `1`, `true`, `{"columns":[null]}`, `{"columns":[{}]}`,
		`{"columns":[{"name":null,"values":null}]}`, `{"columns":[{"values":[]}]}`,
		`{"columns":[{"name":"a","values":["x",null,"y"]}]}`,
		`{"Columns":[{"NAME":"a","Values":["x"]}]}`,
		`{"columns":[{"valueſ":["x"],"nAmE":"b"}]}`,
		`{"columns":[{"name":"a","values":["x",1]}]}`,
		`{"columns":[{"name":"a","values":[true]}]}`,
		`{"columns":[{"name":5}]}`, `{"columns":{}}`, `{"columns":[["x"]]}`,
		`{"columns":[{"name":"a","values":["x"]}],"columns":[{"values":["y","z"]}]}`,
		`{"columns":[{"name":"a","values":["p","q","r"]},{"name":"b"}],"columns":[{"values":["s"]}],"columns":[null,null]}`,
		`{"columns":[{"name":"a","values":["p","q","r"],"values":["s"],"values":["t",null,null,null]}]}`,
		`{"columns":[{"name":"a","values":["p"],"values":[],"values":[null]}]}`,
		`{"extra":{"a":[1,2.5e-3,-0,true,false,null,"\"",{}]},"columns":[{"name":"a","values":["x"],"more":[[]]}]}`,
		`{"columns":[{"name":"😀 \ud800 \udc00x \ud800A é\t\\\/\b\f\n\r","values":["\"quoted\""]}]}`,
		"{\"columns\":[{\"name\":\"\xff\xfe a \xed\xa0\x80\",\"values\":[\"\xc3\"]}]}",
		"{\"columns\":[{\"name\":\"a\x01\",\"values\":[]}]}",
		`{"columns":[{"name":"a","values":["x"]},]}`, `{"columns":[{"name":"a",}]}`,
		`{"columns":[{"name":"a" "values":[]}]}`, `{"columns":[{"name":"\u12"}]}`,
		`{"columns":[{"name":"\x"}]}`, `{"columns":[{"name":"a","values":["x"`, `{"a":01}`,
		`{"a":-}`, `{"a":1.}`, `{"a":1e}`, `{"a":tru}`, "\xef\xbb\xbf{}",
	} {
		checkDecodeMatchesJSON(t, []byte(body))
	}
	// encoding/json allows 10000 nested containers and rejects 10001.
	for _, depth := range []int{maxNestingDepth - 1, maxNestingDepth} {
		inner := strings.Repeat("[", depth-1) + strings.Repeat("]", depth-1)
		checkDecodeMatchesJSON(t, []byte(`{"deep":`+inner+`,"columns":[{"name":"a"}]}`))
	}
}

// TestAppendInferRequestRoundTrip checks the gateway's shard encoder:
// whatever the columns, its body decodes (by either decoder) to exactly
// the columns json.Marshal's body decodes to.
func TestAppendInferRequestRoundTrip(t *testing.T) {
	check := func(names []string, values [][]string) bool {
		cols := make([]data.Column, len(names))
		req := InferRequest{Columns: make([]InferColumn, len(names))}
		for i, n := range names {
			cols[i] = data.Column{Name: n}
			if i < len(values) {
				cols[i].Values = values[i]
			}
			req.Columns[i] = InferColumn{Name: n, Values: cols[i].Values}
		}
		marshaled, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		appended := AppendInferRequest(nil, cols)
		var viaJSON InferRequest
		if err := json.Unmarshal(appended, &viaJSON); err != nil {
			t.Fatalf("encoding/json rejects %q: %v", appended, err)
		}
		var want InferRequest
		if err := json.Unmarshal(marshaled, &want); err != nil {
			t.Fatal(err)
		}
		checkDecodeMatchesJSON(t, appended)
		same := len(viaJSON.Columns) == len(want.Columns)
		for i := 0; same && i < len(want.Columns); i++ {
			g, w := viaJSON.Columns[i], want.Columns[i]
			same = g.Name == w.Name && (g.Values == nil) == (w.Values == nil) && strings.Join(g.Values, "\x00") == strings.Join(w.Values, "\x00")
		}
		if !same {
			t.Errorf("AppendInferRequest(%q) decodes to %#v, json.Marshal's body to %#v", names, viaJSON.Columns, want.Columns)
		}
		return same
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	check([]string{"ctl\x00\x1f\x7f", "bad\xff\xc3", "<&> "}, [][]string{{"\"\\/", ""}, {}, nil})
}

// TestReadInferRequestLimits checks the size limit: a declared length
// over it is refused with 413 before any byte is read, and a body of
// unknown length is read whole.
func TestReadInferRequestLimits(t *testing.T) {
	r := httptest.NewRequest(http.MethodPost, "/v1/infer", strings.NewReader(`{}`))
	r.ContentLength = maxRequestBody + 1
	if _, status, err := ReadInferRequest(httptest.NewRecorder(), r); status != http.StatusRequestEntityTooLarge {
		t.Errorf("declared %d bytes: status %d (%v), want 413", r.ContentLength, status, err)
	}
	body := `{"columns":[{"name":"a","values":["` + strings.Repeat("x", 3000) + `"]}]}`
	r = httptest.NewRequest(http.MethodPost, "/v1/infer", strings.NewReader(body))
	r.ContentLength = -1
	cols, status, err := ReadInferRequest(httptest.NewRecorder(), r)
	if status != http.StatusOK || len(cols) != 1 || len(cols[0].Values[0]) != 3000 {
		t.Errorf("unknown length: status %d (%v), %d columns", status, err, len(cols))
	}
}

// TestReadBodyPresizeCapped checks that a declared Content-Length only
// presizes the buffer up to maxPresizedBody: headers claiming 64 MiB
// followed by a short body cost one buffer of at most that size, not
// 64 MiB, and a longer body grows the buffer only as its bytes arrive.
func TestReadBodyPresizeCapped(t *testing.T) {
	const body = `{"columns":[{"name":"a","values":["x"]}]}`
	buf, err := readBody(strings.NewReader(body), maxRequestBody)
	if err != nil || string(buf) != body {
		t.Fatalf("readBody = %q, %v; want the body", buf, err)
	}
	if cap(buf) > maxPresizedBody {
		t.Errorf("buffer capacity %d for a declared %d-byte body, want at most %d", cap(buf), maxRequestBody, maxPresizedBody)
	}

	sent := strings.Repeat("y", 3*maxPresizedBody)
	buf, err = readBody(strings.NewReader(sent), maxRequestBody)
	if err != nil || string(buf) != sent {
		t.Fatalf("readBody of %d bytes returned %d bytes, %v", len(sent), len(buf), err)
	}
	if cap(buf) > 2*len(sent) {
		t.Errorf("buffer capacity %d after %d bytes declared as %d, want at most twice what arrived", cap(buf), len(sent), maxRequestBody)
	}

	// A long body whose length is declared ends in an exactly sized
	// buffer (plus the byte the EOF read needs).
	buf, err = readBody(strings.NewReader(sent), int64(len(sent)))
	if err != nil || string(buf) != sent {
		t.Fatalf("readBody of %d bytes returned %d bytes, %v", len(sent), len(buf), err)
	}
	if cap(buf) != len(sent)+1 {
		t.Errorf("buffer capacity %d for a declared %d-byte body, want %d", cap(buf), len(sent), len(sent)+1)
	}
}

// TestAppendInferRequestAllocs pins the up-front sizing: encoding a
// batch with nothing to escape into a nil slice is one allocation.
func TestAppendInferRequestAllocs(t *testing.T) {
	cols := make([]data.Column, 8)
	for i := range cols {
		cols[i].Name = "col" + strconv.Itoa(i)
		for j := 0; j < 600; j++ {
			cols[i].Values = append(cols[i].Values, strconv.Itoa(i*j))
		}
	}
	allocs := testing.AllocsPerRun(20, func() { _ = AppendInferRequest(nil, cols) })
	if allocs != 1 {
		t.Errorf("AppendInferRequest: %.0f allocs, want 1", allocs)
	}
}

// TestDecodeAllocsPerRequest pins the arena design: decoding a batch
// costs a fixed handful of allocations (the cell slice, the column
// slice, the unescape buffer), not one per cell, also for a batch of
// more than 65,536 cells.
func TestDecodeAllocsPerRequest(t *testing.T) {
	for _, rows := range []int{600, 9000} {
		cols := make([]data.Column, 8)
		for i := range cols {
			cols[i].Name = "col" + strconv.Itoa(i)
			for j := 0; j < rows; j++ {
				cols[i].Values = append(cols[i].Values, strconv.Itoa(i*j)+"\t<&>")
			}
		}
		body := AppendInferRequest(nil, cols)
		buf := make([]byte, len(body))
		allocs := testing.AllocsPerRun(20, func() {
			copy(buf, body)
			if _, err := DecodeInferRequest(buf); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 3 {
			t.Errorf("DecodeInferRequest: %.0f allocs for %d cells, want at most 3", allocs, 8*rows)
		}
	}
}
