package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// capture runs shvet's entry point with stdout/stderr redirected to temp
// files and returns the exit code plus both streams.
func capture(t *testing.T, args []string) (code int, stdout, stderr string) {
	t.Helper()
	read := func(f *os.File) string {
		t.Helper()
		data, err := os.ReadFile(f.Name())
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	outF, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	errF, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	code = run(args, outF, errF)
	if err := outF.Close(); err != nil {
		t.Fatal(err)
	}
	if err := errF.Close(); err != nil {
		t.Fatal(err)
	}
	return code, read(outF), read(errF)
}

func TestListPrintsEveryAnalyzer(t *testing.T) {
	code, stdout, _ := capture(t, []string{"-list"})
	if code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	for _, name := range []string{
		"global-rand", "map-order", "float-eq", "unchecked-err",
		"doc-comment", "lock-balance", "nondet-flow", "ctx-flow", "goroutine-leak",
	} {
		if !strings.Contains(stdout, name) {
			t.Errorf("-list output missing %s:\n%s", name, stdout)
		}
	}
}

func TestUnknownAnalyzerIsUsageError(t *testing.T) {
	code, _, stderr := capture(t, []string{"-only", "no-such-pass"})
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(stderr, "unknown analyzer") {
		t.Errorf("stderr missing diagnosis:\n%s", stderr)
	}
}

func TestRepoIsCleanViaCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	// Patterns resolve relative to the working directory (here, this
	// package's dir), so ../../... spans the whole module.
	code, stdout, stderr := capture(t, []string{"../../..."})
	if code != 0 {
		t.Fatalf("shvet ../../... exit = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
}

func TestPatternFiltersPackages(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	// The tree package carries three justified float-eq suppressions;
	// -show-suppressed over just that subtree must surface them and still
	// exit 0.
	code, stdout, stderr := capture(t, []string{"-show-suppressed", "-only", "float-eq", "../../internal/ml/..."})
	if code != 0 {
		t.Fatalf("exit = %d, want 0\nstderr:\n%s", code, stderr)
	}
	if got := strings.Count(stdout, "(suppressed:"); got != 3 {
		t.Errorf("suppressed float-eq findings in internal/ml = %d, want 3\n%s", got, stdout)
	}
	if strings.Contains(stdout, "cmd/") {
		t.Errorf("pattern ../../internal/ml/... leaked cmd/ findings:\n%s", stdout)
	}
}

// chtmpmod materializes a throwaway module in its own directory, chdirs
// into it, and restores the working directory on cleanup.
func chtmpmod(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module tmpmod\n\ngo 1.22\n"
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(old); err != nil {
			t.Fatal(err)
		}
	})
	return dir
}

const dirtyFixture = `// Package dirty trips global-rand on purpose.
package dirty

import "math/rand"

// Draw uses the global source.
func Draw() float64 {
	return rand.Float64()
}
`

// TestDirtyModuleFails checks the gate itself: an unsuppressed finding
// prints in file:line:col form and makes the run exit 1.
func TestDirtyModuleFails(t *testing.T) {
	chtmpmod(t, map[string]string{"dirty.go": dirtyFixture})
	code, stdout, stderr := capture(t, []string{"-only", "global-rand"})
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstderr:\n%s", code, stderr)
	}
	if !strings.HasPrefix(stdout, "dirty.go:8:9: [global-rand]") {
		t.Errorf("stdout missing the finding:\n%s", stdout)
	}
	if !strings.Contains(stderr, "1 unsuppressed finding(s)") {
		t.Errorf("stderr missing finding count:\n%s", stderr)
	}
}

func TestNoMatchingPackages(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	code, _, stderr := capture(t, []string{"./no/such/dir"})
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(stderr, "no packages match") {
		t.Errorf("stderr missing diagnosis:\n%s", stderr)
	}
}
