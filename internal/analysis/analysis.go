package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one diagnostic produced by an analyzer.
type Finding struct {
	Pos        token.Position
	Analyzer   string
	Message    string
	Suppressed bool   // true when a //shvet:ignore directive covers it
	Reason     string // suppression reason, when Suppressed
}

// String renders the finding in the canonical file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// Analyzer is one named pass. Exactly one of Run and RunModule is set:
// Run is invoked once per package, RunModule once per module with the
// whole-module call graph available.
type Analyzer struct {
	Name      string // short kebab-case identifier used in reports and directives
	Doc       string // one-line description
	Run       func(*Pass)
	RunModule func(*ModulePass)
}

// Pass carries one type-checked package through an analyzer run.
type Pass struct {
	Fset  *token.FileSet
	Pkg   *types.Package
	Info  *types.Info
	Files []*ast.File

	analyzer string
	findings *[]Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.analyzer,
		Message:  fmt.Sprintf(format, args...),
	})
}

// IsTestFile reports whether the file containing pos is a _test.go file.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// TypeOf returns the type of e, or nil when untyped.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	return p.Info.TypeOf(e)
}

// ModulePass carries the whole module — every package plus the call graph
// built over them — through a module-level analyzer run.
type ModulePass struct {
	Fset  *token.FileSet
	Pkgs  []*Package
	Graph *CallGraph

	analyzer string
	findings *[]Finding
	hot      map[string]crumb // lazily built hot region (see hotpath.go)
}

// Reportf records a finding at pos.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	p.ReportAtf(p.Fset.Position(pos), format, args...)
}

// ReportAtf records a finding at an already-resolved position.
func (p *ModulePass) ReportAtf(pos token.Position, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Pos:      pos,
		Analyzer: p.analyzer,
		Message:  fmt.Sprintf(format, args...),
	})
}

// All returns the full analyzer suite in report order.
func All() []*Analyzer {
	return []*Analyzer{
		AnalyzerGlobalRand,
		AnalyzerMapOrder,
		AnalyzerFloatEq,
		AnalyzerUncheckedErr,
		AnalyzerDocComment,
		AnalyzerLockBalance,
		AnalyzerNondetFlow,
		AnalyzerCtxFlow,
		AnalyzerGoroutineLeak,
		AnalyzerAllocInLoop,
		AnalyzerStringChurn,
		AnalyzerDeferInLoop,
		AnalyzerBoxing,
	}
}

// knownAnalyzerNames returns the set of names a //shvet:ignore directive
// may mention: every analyzer in the full suite plus the wildcard "all".
func knownAnalyzerNames() map[string]bool {
	names := map[string]bool{"all": true}
	for _, a := range All() {
		names[a.Name] = true
	}
	return names
}

// Analyze runs every analyzer over every package and returns all findings
// (suppressed ones included, marked) sorted by position. Per-package
// analyzers run package by package; module analyzers run once over the
// call graph built from the whole package set. Malformed //shvet:ignore
// directives surface as findings under the "directive" pseudo-analyzer,
// which cannot itself be suppressed.
func Analyze(pkgs []*Package, analyzers []*Analyzer) []Finding {
	var out []Finding
	known := knownAnalyzerNames()
	sup := suppressions{}
	for _, pkg := range pkgs {
		collectSuppressions(pkg, known, sup, &out)
	}

	var module []*Analyzer
	for _, a := range analyzers {
		if a.RunModule != nil {
			module = append(module, a)
			continue
		}
		for _, pkg := range pkgs {
			pass := &Pass{
				Fset:     pkg.Fset,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				Files:    pkg.Files,
				analyzer: a.Name,
				findings: &out,
			}
			a.Run(pass)
		}
	}
	if len(module) > 0 && len(pkgs) > 0 {
		mp := &ModulePass{
			Fset:     pkgs[0].Fset,
			Pkgs:     pkgs,
			Graph:    BuildCallGraph(pkgs),
			findings: &out,
		}
		for _, a := range module {
			mp.analyzer = a.Name
			a.RunModule(mp)
		}
	}

	for i := range out {
		if out[i].Analyzer == DirectiveAnalyzer {
			continue
		}
		if reason, ok := sup.match(out[i].Pos, out[i].Analyzer); ok {
			out[i].Suppressed = true
			out[i].Reason = reason
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

// Unsuppressed filters findings down to the ones not covered by a
// directive; these are the ones that fail CI.
func Unsuppressed(findings []Finding) []Finding {
	var out []Finding
	for _, f := range findings {
		if !f.Suppressed {
			out = append(out, f)
		}
	}
	return out
}
