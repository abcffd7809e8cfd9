package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// Package is one type-checked package of the module under analysis. The
// in-package _test.go files are included (the "augmented" variant, like go
// vet analyzes); external test packages (package foo_test) appear as their
// own entries with ImportPath suffixed "_test".
type Package struct {
	ImportPath string
	Mod        string // module path of the enclosing module
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
	Src        map[string][]byte // filename -> source bytes, for directive scanning
}

// Loader discovers, parses and type-checks every package under a module
// root. Module-internal imports are resolved by recursively type-checking
// from source; everything else (the standard library) is delegated to the
// stdlib source importer, so the whole process works offline with no
// dependency beyond GOROOT.
type Loader struct {
	ModRoot string
	ModPath string
	Fset    *token.FileSet

	dir      string // absolute directory patterns resolve against
	std      types.Importer
	base     map[string]*types.Package // import cache: non-test variant
	checking map[string]bool           // cycle guard for ensureBase
	src      map[string][]byte
}

var moduleRe = regexp.MustCompile(`(?m)^module\s+(\S+)`)

// FindModuleRoot walks up from dir to the nearest directory containing
// go.mod and returns its path and the declared module path.
func FindModuleRoot(dir string) (root, modpath string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, rerr := os.ReadFile(filepath.Join(dir, "go.mod"))
		if rerr == nil {
			m := moduleRe.FindSubmatch(data)
			if m == nil {
				return "", "", fmt.Errorf("analysis: %s/go.mod has no module directive", dir)
			}
			return dir, string(m[1]), nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// NewLoader returns a loader rooted at the module containing dir;
// Load's patterns resolve relative to dir.
func NewLoader(dir string) (*Loader, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root, modpath, err := FindModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		ModRoot:  root,
		ModPath:  modpath,
		Fset:     fset,
		dir:      dir,
		std:      importer.ForCompiler(fset, "source", nil),
		base:     map[string]*types.Package{},
		checking: map[string]bool{},
		src:      map[string][]byte{},
	}, nil
}

// Load type-checks the packages under the module root whose directory
// matches a pattern and returns the augmented packages plus any external
// test packages, sorted by import path. Patterns follow the go tool's
// shape — "./..." for a subtree, "./internal/ml" for one directory — and
// resolve relative to the loader's directory; with no pattern every
// package is loaded. Unmatched packages are type-checked only as far as
// a matched one imports them. Directories named testdata or vendor and
// hidden/underscore directories are skipped, as the go tool does.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	dirs, err := l.discover()
	if err != nil {
		return nil, err
	}
	if len(patterns) > 0 {
		dirs = matchDirs(dirs, patterns, l.dir)
	}
	var out []*Package
	for _, dir := range dirs {
		pkgs, err := l.checkDir(dir)
		if err != nil {
			return nil, err
		}
		out = append(out, pkgs...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ImportPath < out[j].ImportPath })
	return out, nil
}

func (l *Loader) discover() ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(l.ModRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != l.ModRoot && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			dir := filepath.Dir(path)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	return dirs, err
}

// matchDirs keeps the directories that match any pattern, resolved
// relative to base.
func matchDirs(dirs, patterns []string, base string) []string {
	type rule struct {
		dir     string
		subtree bool
	}
	var rules []rule
	for _, p := range patterns {
		subtree := false
		if p == "..." || strings.HasSuffix(p, "/...") {
			subtree = true
			p = strings.TrimSuffix(strings.TrimSuffix(p, "..."), "/")
			if p == "" {
				p = "."
			}
		}
		if !filepath.IsAbs(p) {
			p = filepath.Join(base, p)
		}
		rules = append(rules, rule{dir: filepath.Clean(p), subtree: subtree})
	}
	var out []string
	for _, dir := range dirs {
		for _, r := range rules {
			if dir == r.dir || (r.subtree && strings.HasPrefix(dir+string(filepath.Separator), r.dir+string(filepath.Separator))) {
				out = append(out, dir)
				break
			}
		}
	}
	return out
}

// importPath maps a directory under the module root to its import path.
func (l *Loader) importPath(dir string) string {
	rel, err := filepath.Rel(l.ModRoot, dir)
	if err != nil || rel == "." {
		return l.ModPath
	}
	return l.ModPath + "/" + filepath.ToSlash(rel)
}

func (l *Loader) dirFor(path string) string {
	if path == l.ModPath {
		return l.ModRoot
	}
	return filepath.Join(l.ModRoot, filepath.FromSlash(strings.TrimPrefix(path, l.ModPath+"/")))
}

// Import implements types.Importer over the module: module-internal paths
// are type-checked from source (non-test variant), everything else is
// delegated to the stdlib source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.ModPath || strings.HasPrefix(path, l.ModPath+"/") {
		return l.ensureBase(path)
	}
	return l.std.Import(path)
}

// ensureBase type-checks the non-test variant of a module package; this is
// what other packages (and external test packages) compile against.
func (l *Loader) ensureBase(path string) (*types.Package, error) {
	if pkg, ok := l.base[path]; ok {
		return pkg, nil
	}
	if l.checking[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.checking[path] = true
	defer delete(l.checking, path)

	files, _, _, err := l.parseDir(l.dirFor(path))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no buildable Go files in %s", l.dirFor(path))
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.Fset, files, nil)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	l.base[path] = pkg
	return pkg, nil
}

// parseDir parses every .go file in dir into three groups: non-test files,
// in-package test files, and external (package foo_test) test files.
func (l *Loader) parseDir(dir string) (base, intest, xtest []*ast.File, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		full := filepath.Join(dir, name)
		data, rerr := os.ReadFile(full)
		if rerr != nil {
			return nil, nil, nil, rerr
		}
		l.src[full] = data
		f, perr := parser.ParseFile(l.Fset, full, data, parser.ParseComments)
		if perr != nil {
			return nil, nil, nil, fmt.Errorf("analysis: parsing %s: %w", full, perr)
		}
		switch {
		case strings.HasSuffix(f.Name.Name, "_test") && strings.HasSuffix(name, "_test.go"):
			xtest = append(xtest, f)
		case strings.HasSuffix(name, "_test.go"):
			intest = append(intest, f)
		default:
			base = append(base, f)
		}
	}
	return base, intest, xtest, nil
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
}

// checkDir type-checks dir's augmented package (sources plus in-package
// test files) and, when present, its external test package.
func (l *Loader) checkDir(dir string) ([]*Package, error) {
	base, intest, xtest, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	path := l.importPath(dir)
	var out []*Package

	if len(base)+len(intest) > 0 {
		// Cache the pure base variant first so imports (including the
		// augmented check's own dependencies) never see test symbols.
		if len(base) > 0 {
			if _, err := l.ensureBase(path); err != nil {
				return nil, err
			}
		}
		files := append(append([]*ast.File{}, base...), intest...)
		info := newInfo()
		conf := types.Config{Importer: l}
		tpkg, err := conf.Check(path, l.Fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
		}
		out = append(out, l.newPackage(path, dir, files, tpkg, info))
	}
	if len(xtest) > 0 {
		info := newInfo()
		conf := types.Config{Importer: l}
		tpkg, err := conf.Check(path+"_test", l.Fset, xtest, info)
		if err != nil {
			return nil, fmt.Errorf("analysis: type-checking %s_test: %w", path, err)
		}
		out = append(out, l.newPackage(path+"_test", dir, xtest, tpkg, info))
	}
	return out, nil
}

func (l *Loader) newPackage(path, dir string, files []*ast.File, tpkg *types.Package, info *types.Info) *Package {
	src := map[string][]byte{}
	for _, f := range files {
		name := l.Fset.Position(f.Package).Filename
		src[name] = l.src[name]
	}
	return &Package{
		ImportPath: path,
		Mod:        l.ModPath,
		Dir:        dir,
		Fset:       l.Fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
		Src:        src,
	}
}
