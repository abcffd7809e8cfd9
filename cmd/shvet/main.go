// Command shvet runs the repository's thirteen-analyzer suite
// (internal/analysis) — determinism, correctness, and hot-path
// performance passes — over the module and exits non-zero when any
// unsuppressed finding remains, so it can gate CI.
//
// The four performance analyzers (alloc-in-loop, string-churn,
// defer-in-loop, boxing) report only inside the serving hot region:
// the call-graph closure of the exported Predict*/Infer*/Featurize*/
// Extract* entry points plus any //shvet:hotpath-rooted function. They
// are the static half of the perf gate; the dynamic half is
// cmd/benchdiff, which replays the serve benchmarks against the
// committed BENCH_serve.json snapshot (make bench-gate).
//
// Usage:
//
//	shvet [flags] [pattern ...]
//
// Patterns follow the go tool's shape: "./..." (the default) analyzes the
// whole module, "./internal/experiments" one package, "./internal/..." a
// subtree. Only matching packages are type-checked, plus whatever they
// import from the module. Flags:
//
//	-list             print the analyzers and exit
//	-only a,b         run only the named analyzers
//	-show-suppressed  also print findings silenced by //shvet:ignore
//
// Findings print as file:line:col: [analyzer] message. Suppress one with
// an end-of-line directive: //shvet:ignore <analyzer> <reason>.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"sortinghat/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("shvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "print the analyzers and exit")
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	showSuppressed := fs.Bool("show-suppressed", false, "also print suppressed findings")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := analysis.All()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *only != "" {
		analyzers = nil
		byName := map[string]*analysis.Analyzer{}
		for _, a := range analysis.All() {
			byName[a.Name] = a
		}
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(stderr, "shvet: unknown analyzer %q (try -list)\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "shvet: %v\n", err)
		return 2
	}
	loader, err := analysis.NewLoader(cwd)
	if err != nil {
		fmt.Fprintf(stderr, "shvet: %v\n", err)
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "shvet: %v\n", err)
		return 2
	}
	if len(pkgs) == 0 {
		fmt.Fprintf(stderr, "shvet: no packages match %v\n", patterns)
		return 2
	}

	unsuppressed := 0
	for _, f := range analysis.Analyze(pkgs, analyzers) {
		if !f.Suppressed {
			unsuppressed++
		} else if !*showSuppressed {
			continue
		}
		rel := f
		if r, err := filepath.Rel(cwd, f.Pos.Filename); err == nil && !strings.HasPrefix(r, "..") {
			rel.Pos.Filename = r
		}
		suffix := ""
		if f.Suppressed {
			suffix = fmt.Sprintf(" (suppressed: %s)", f.Reason)
		}
		fmt.Fprintf(stdout, "%s%s\n", rel, suffix)
	}
	if unsuppressed > 0 {
		fmt.Fprintf(stderr, "shvet: %d unsuppressed finding(s)\n", unsuppressed)
		return 1
	}
	return 0
}
