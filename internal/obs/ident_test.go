package obs

import (
	"context"
	"strings"
	"testing"
)

// TestTraceparentRoundTrip renders a SpanContext as a traceparent value
// and parses it back, pinning the W3C "00-<32 hex>-<16 hex>-01" layout.
func TestTraceparentRoundTrip(t *testing.T) {
	var sc SpanContext
	for i := range sc.TraceID {
		sc.TraceID[i] = byte(i + 1)
	}
	for i := range sc.SpanID {
		sc.SpanID[i] = byte(0xa0 + i)
	}
	hdr := sc.Traceparent()
	if len(hdr) != 55 {
		t.Fatalf("traceparent length = %d, want 55: %q", len(hdr), hdr)
	}
	if !strings.HasPrefix(hdr, "00-") || !strings.HasSuffix(hdr, "-01") {
		t.Fatalf("traceparent version/flags wrong: %q", hdr)
	}
	if want := "00-0102030405060708090a0b0c0d0e0f10-a0a1a2a3a4a5a6a7-01"; hdr != want {
		t.Fatalf("traceparent = %q, want %q", hdr, want)
	}
	back, ok := ParseTraceparent(hdr)
	if !ok {
		t.Fatalf("ParseTraceparent rejected its own rendering %q", hdr)
	}
	if back != sc {
		t.Fatalf("round trip lost identity: %+v != %+v", back, sc)
	}
}

// TestParseTraceparentRejects pins the malformed inputs the parser must
// refuse: wrong length, wrong separators, non-hex digits, zero ids.
func TestParseTraceparentRejects(t *testing.T) {
	valid := SpanContext{TraceID: TraceID{1}, SpanID: SpanID{2}}.Traceparent()
	if _, ok := ParseTraceparent(valid); !ok {
		t.Fatalf("sanity: %q should parse", valid)
	}
	cases := map[string]string{
		"empty":         "",
		"truncated":     valid[:54],
		"overlong":      valid + "0",
		"bad separator": strings.Replace(valid, "-", "_", 1),
		"non-hex trace": "00-zz02030405060708090a0b0c0d0e0f10-a0a1a2a3a4a5a6a7-01",
		"non-hex span":  "00-0102030405060708090a0b0c0d0e0f10-zza1a2a3a4a5a6a7-01",
		"zero trace id": "00-00000000000000000000000000000000-a0a1a2a3a4a5a6a7-01",
		"zero span id":  "00-0102030405060708090a0b0c0d0e0f10-0000000000000000-01",
	}
	for name, in := range cases {
		if sc, ok := ParseTraceparent(in); ok {
			t.Errorf("%s: ParseTraceparent(%q) accepted -> %+v", name, in, sc)
		}
	}
	// Foreign versions and flags are accepted (W3C forward compatibility).
	for _, in := range []string{
		"01" + valid[2:],
		valid[:53] + "00",
	} {
		if _, ok := ParseTraceparent(in); !ok {
			t.Errorf("ParseTraceparent(%q) rejected a valid foreign version/flags", in)
		}
	}
}

// TestSpanIdentityInheritance pins the in-process identity contract: a
// root span mints a fresh trace id, children inherit it, and each child's
// parent_span_id is its parent's span id.
func TestSpanIdentityInheritance(t *testing.T) {
	tr := NewTracer(2)
	ctx, root := tr.Start(context.Background(), "request")
	ctxA, a := tr.Start(ctx, "featurize")
	_, a1 := tr.Start(ctxA, "stats")
	a1.End()
	a.End()
	root.End()

	rc := root.Context()
	if rc.TraceID.IsZero() || rc.SpanID.IsZero() {
		t.Fatalf("root has incomplete identity: %+v", rc)
	}
	if a.Context().TraceID != rc.TraceID || a1.Context().TraceID != rc.TraceID {
		t.Error("children do not share the root trace id")
	}
	if a.Context().SpanID == rc.SpanID || a1.Context().SpanID == a.Context().SpanID {
		t.Error("span ids not unique within the trace")
	}
	got := tr.Recent()[0]
	if got.TraceID != rc.TraceID.String() {
		t.Errorf("JSON trace_id = %q, want %q", got.TraceID, rc.TraceID)
	}
	if got.ParentID != "" {
		t.Errorf("locally minted root has parent_span_id %q, want none", got.ParentID)
	}
	feat := got.Children[0]
	if feat.ParentID != rc.SpanID.String() {
		t.Errorf("child parent_span_id = %q, want root span id %q", feat.ParentID, rc.SpanID)
	}
	if feat.TraceID != "" {
		t.Errorf("non-root span carries trace_id %q; only roots should", feat.TraceID)
	}
	if feat.Children[0].ParentID != feat.SpanID {
		t.Errorf("grandchild parent_span_id = %q, want %q", feat.Children[0].ParentID, feat.SpanID)
	}
}

// TestRemoteParentContinuation pins the cross-process contract: a root
// span started under ContextWithRemoteParent adopts the remote trace id
// and parents itself to the remote span — the replica half of gateway →
// replica propagation.
func TestRemoteParentContinuation(t *testing.T) {
	remote := SpanContext{TraceID: TraceID{0xde, 0xad}, SpanID: SpanID{0xbe, 0xef}}
	tr := NewTracer(2)
	ctx := ContextWithRemoteParent(context.Background(), remote)
	ctx, root := tr.Start(ctx, "infer")
	_, child := tr.Start(ctx, "featurize")
	child.End()
	root.End()

	if got := root.Context().TraceID; got != remote.TraceID {
		t.Errorf("root trace id = %v, want the remote trace id %v", got, remote.TraceID)
	}
	if root.Context().SpanID == remote.SpanID {
		t.Error("root reused the remote span id instead of minting its own")
	}
	got := tr.Recent()[0]
	if got.ParentID != remote.SpanID.String() {
		t.Errorf("root parent_span_id = %q, want remote span %q", got.ParentID, remote.SpanID)
	}
	if got.TraceID != remote.TraceID.String() {
		t.Errorf("root trace_id = %q, want %q", got.TraceID, remote.TraceID)
	}
	if got.Children[0].ParentID != root.Context().SpanID.String() {
		t.Error("child parents to the local root, not the remote span")
	}

	// An in-process parent wins over a stale remote identity in ctx.
	ctx2 := ContextWithRemoteParent(context.Background(), remote)
	ctx2, outer := tr.Start(ctx2, "outer")
	_, inner := tr.Start(ctx2, "inner")
	if inner.Context().TraceID != outer.Context().TraceID {
		t.Error("child with local parent must inherit the local trace id")
	}
	inner.End()
	outer.End()

	// A zero remote parent is ignored.
	if c := ContextWithRemoteParent(context.Background(), SpanContext{}); c != context.Background() {
		t.Error("zero remote parent should leave ctx unchanged")
	}
}

// TestSeedIDsDeterministic pins that SeedIDs makes ids a pure function of
// the seed and creation order, and that two differently seeded tracers
// diverge — the property golden tests and fleet-uniqueness rest on.
func TestSeedIDsDeterministic(t *testing.T) {
	mint := func(seed uint64) (TraceID, SpanID) {
		tr := NewTracer(1)
		tr.SeedIDs(seed)
		_, s := tr.Start(context.Background(), "x")
		s.End()
		return s.Context().TraceID, s.Context().SpanID
	}
	t1, s1 := mint(7)
	t2, s2 := mint(7)
	if t1 != t2 || s1 != s2 {
		t.Error("same seed produced different ids")
	}
	t3, s3 := mint(8)
	if t1 == t3 || s1 == s3 {
		t.Error("different seeds produced identical ids")
	}
	if t1.IsZero() || s1.IsZero() {
		t.Error("seeded generator minted a zero id")
	}
}

// TestNilSpanContext pins nil-safety for the identity accessors.
func TestNilSpanContext(t *testing.T) {
	var s *Span
	if !s.Context().IsZero() {
		t.Error("nil span Context() must be zero")
	}
	var tr *Tracer
	tr.SeedIDs(1) // must not panic
}

// FuzzParseTraceparent fuzzes the parser of the untrusted traceparent
// header every request passes through: it must never panic, and any
// header it accepts must name a context that survives a render and
// re-parse unchanged (ParseTraceparent(sc.Traceparent()) == sc), with
// non-zero trace and span ids.
func FuzzParseTraceparent(f *testing.F) {
	f.Add("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	f.Fuzz(func(t *testing.T, header string) {
		sc, ok := ParseTraceparent(header)
		if !ok {
			if !sc.IsZero() || !sc.SpanID.IsZero() {
				t.Fatalf("ParseTraceparent(%q) rejected but returned %+v", header, sc)
			}
			return
		}
		if sc.TraceID.IsZero() || sc.SpanID.IsZero() {
			t.Fatalf("ParseTraceparent(%q) accepted a zero id: %+v", header, sc)
		}
		back, ok := ParseTraceparent(sc.Traceparent())
		if !ok || back != sc {
			t.Fatalf("ParseTraceparent(%q) = %+v, but its rendering %q re-parses to %+v, %v", header, sc, sc.Traceparent(), back, ok)
		}
	})
}
