package faultinject

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// TestParseErrors table-drives the spec grammar's rejections.
func TestParseErrors(t *testing.T) {
	cases := []struct{ name, spec string }{
		{"empty", ""},
		{"only separators", " ; ; "},
		{"too few fields", "predict:panic"},
		{"unknown kind", "predict:explode:0.5"},
		{"bad rate", "predict:panic:lots"},
		{"rate above one", "predict:panic:1.5"},
		{"negative rate", "predict:panic:-0.1"},
		{"bad duration", "featurize:latency:1:fast"},
		{"bad cap", "predict:error:1:xfour"},
		{"zero cap", "predict:error:1:x0"},
		{"duration on error fault", "predict:error:1:20ms"},
		{"latency without duration", "featurize:latency:1"},
		{"empty site", ":panic:0.5"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Parse(tc.spec, 1); err == nil {
				t.Errorf("Parse(%q) accepted a malformed spec", tc.spec)
			}
		})
	}
}

// TestParseRoundTrip checks a multi-clause spec arms what it says, via
// the startup-log String form.
func TestParseRoundTrip(t *testing.T) {
	in, err := Parse("predict:panic:0.1; featurize:latency:1:20ms; predict:error:0.5:x6", 1)
	if err != nil {
		t.Fatal(err)
	}
	got := in.String()
	for _, want := range []string{"predict:panic:0.1", "featurize:latency:1:20ms", "predict:error:0.5:x6"} {
		if !strings.Contains(got, want) {
			t.Errorf("String() = %q, missing %q", got, want)
		}
	}
	// Sites render sorted regardless of spec order.
	if f, p := strings.Index(got, "featurize"), strings.Index(got, "predict"); f > p {
		t.Errorf("String() = %q: sites not in sorted order", got)
	}
}

// TestLatencyShorthand checks the duration-as-rate shorthand: a
// latency clause may put a duration in the rate slot, meaning rate 1,
// and its canonical String form re-parses to the same fault.
func TestLatencyShorthand(t *testing.T) {
	in, err := Parse("featurize:latency:120ms", 1)
	if err != nil {
		t.Fatal(err)
	}
	canonical := in.String()
	if canonical != "featurize:latency:1:120ms" {
		t.Fatalf("String() = %q, want the canonical long form", canonical)
	}
	again, err := Parse(canonical, 1)
	if err != nil {
		t.Fatalf("canonical form %q failed to re-parse: %v", canonical, err)
	}
	if again.String() != canonical {
		t.Errorf("round trip changed the spec: %q -> %q", canonical, again.String())
	}
	// The shorthand is latency-only: a duration can't stand in for the
	// rate of an error or panic fault.
	if _, err := Parse("predict:error:120ms", 1); err == nil {
		t.Error("duration-as-rate accepted on an error fault")
	}
	// A shorthand clause with a fire cap still parses.
	in2, err := Parse("forward@r1:latency:20ms:x4", 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := in2.String(); got != "forward@r1:latency:1:20ms:x4" {
		t.Errorf("String() = %q, want forward@r1:latency:1:20ms:x4", got)
	}
}

// TestDeterministicSequence requires the same spec + seed to fire on the
// same visits, and a different seed to (overwhelmingly likely) differ.
func TestDeterministicSequence(t *testing.T) {
	sequence := func(seed int64) []bool {
		in, err := Parse("predict:error:0.5", seed)
		if err != nil {
			t.Fatal(err)
		}
		fires := make([]bool, 200)
		for i := range fires {
			fires[i] = in.Inject("predict") != nil
		}
		return fires
	}
	a, b := sequence(7), sequence(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("visit %d: same seed fired differently", i)
		}
	}
	c := sequence(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("200 draws identical across different seeds")
	}
}

// TestFireCap checks xCOUNT stops the fault after exactly COUNT fires.
func TestFireCap(t *testing.T) {
	in, err := Parse("predict:error:1:x3", 1)
	if err != nil {
		t.Fatal(err)
	}
	fails := 0
	for i := 0; i < 10; i++ {
		if err := in.Inject("predict"); err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("visit %d: error %v does not wrap ErrInjected", i, err)
			}
			fails++
		}
	}
	if fails != 3 {
		t.Fatalf("rate-1 x3 fault fired %d times over 10 visits, want 3", fails)
	}
	if in.Fired() != 3 {
		t.Fatalf("Fired() = %d, want 3", in.Fired())
	}
}

// TestPanicFault checks injected panics carry the typed site marker.
func TestPanicFault(t *testing.T) {
	in, err := Parse("predict:panic:1:x1", 1)
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			r := recover()
			p, ok := r.(InjectedPanic)
			if !ok {
				t.Fatalf("recovered %v (%T), want InjectedPanic", r, r)
			}
			if p.Site != "predict" {
				t.Errorf("panic site = %q, want predict", p.Site)
			}
		}()
		_ = in.Inject("predict")
		t.Fatal("rate-1 panic fault did not fire")
	}()
	if err := in.Inject("predict"); err != nil {
		t.Fatalf("x1 panic fault fired twice: %v", err)
	}
}

// TestLatencyFault checks latency faults sleep and return nil.
func TestLatencyFault(t *testing.T) {
	in, err := Parse("featurize:latency:1:30ms:x1", 1)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := in.Inject("featurize"); err != nil {
		t.Fatalf("latency fault returned error %v", err)
	}
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Errorf("latency fault slept %v, want >= 30ms", elapsed)
	}
}

// TestUnknownSiteAndNilInjector checks no-op paths stay no-ops.
func TestUnknownSiteAndNilInjector(t *testing.T) {
	in, err := Parse("predict:error:1", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Inject("featurize"); err != nil {
		t.Errorf("unarmed site fired: %v", err)
	}
	var none *Injector
	if err := none.Inject("predict"); err != nil {
		t.Errorf("nil injector fired: %v", err)
	}
	if none.Fired() != 0 {
		t.Errorf("nil injector Fired() = %d", none.Fired())
	}
	if got := none.String(); got != "(none)" {
		t.Errorf("nil injector String() = %q, want (none)", got)
	}
}

// FuzzFaultSpec checks the -fault-spec parser never panics and that
// every spec it accepts round-trips: String renders a spec that parses
// back to the same faults, and so renders identically.
func FuzzFaultSpec(f *testing.F) {
	f.Add("predict:panic:0.1")
	f.Fuzz(func(t *testing.T, spec string) {
		in, err := Parse(spec, 1)
		if err != nil {
			return
		}
		s := in.String()
		again, err := Parse(s, 1)
		if err != nil {
			t.Fatalf("Parse(%q) accepted, but its String %q does not parse: %v", spec, s, err)
		}
		if s2 := again.String(); s2 != s {
			t.Fatalf("Parse(%q).String() = %q, which re-renders as %q", spec, s, s2)
		}
	})
}
