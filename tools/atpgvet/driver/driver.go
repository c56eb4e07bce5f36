// Package driver loads, type-checks and analyzes Go packages for atpgvet.
//
// Packages are discovered and compiled with `go list -export -json -deps`:
// the go command resolves the build list and produces export data for every
// dependency in the build cache, and the driver type-checks only the target
// packages from source, importing the dependencies through their export
// data.  This keeps the driver module-aware without depending on
// golang.org/x/tools/go/packages.
package driver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"repro/tools/atpgvet/analysis"
)

// Package is one type-checked target package.
type Package struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// listPkg is the subset of `go list -json` output the driver consumes.
type listPkg struct {
	ImportPath string
	Name       string
	Dir        string
	Export     string
	GoFiles    []string
	CgoFiles   []string
	Standard   bool
	DepOnly    bool
	Error      *struct{ Err string }
}

// Load lists the patterns in dir and type-checks every non-dependency
// package from source.
func Load(dir string, patterns []string) ([]*Package, error) {
	args := append([]string{
		"list", "-e", "-export", "-deps",
		"-json=ImportPath,Name,Dir,Export,GoFiles,CgoFiles,Standard,DepOnly,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}

	byPath := make(map[string]*listPkg)
	var targets []*listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %v", err)
		}
		lp := p
		byPath[lp.ImportPath] = &lp
		if !lp.DepOnly {
			targets = append(targets, &lp)
		}
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		p, ok := byPath[path]
		if !ok || p.Export == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(p.Export)
	})

	var pkgs []*Package
	for _, t := range targets {
		if t.Error != nil {
			return nil, fmt.Errorf("package %s: %s", t.ImportPath, t.Error.Err)
		}
		if t.Name == "" || len(t.GoFiles) == 0 {
			continue // metadata-only entry (e.g. empty directory match)
		}
		if len(t.CgoFiles) > 0 {
			return nil, fmt.Errorf("package %s: cgo packages are not supported", t.ImportPath)
		}
		pkg, err := check(fset, imp, t.ImportPath, t.Dir, absFiles(t.Dir, t.GoFiles))
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// absFiles resolves the file names of a package directory.
func absFiles(dir string, names []string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		if filepath.IsAbs(n) {
			out[i] = n
		} else {
			out[i] = filepath.Join(dir, n)
		}
	}
	return out
}

// check parses and type-checks one package from source.
func check(fset *token.FileSet, imp types.Importer, importPath, dir string, files []string) (*Package, error) {
	var astFiles []*ast.File
	for _, f := range files {
		af, err := parser.ParseFile(fset, f, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		astFiles = append(astFiles, af)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	var typeErr error
	conf := types.Config{
		Importer: imp,
		Error: func(err error) {
			if typeErr == nil {
				typeErr = err
			}
		},
	}
	tpkg, err := conf.Check(importPath, fset, astFiles, info)
	if typeErr != nil {
		return nil, fmt.Errorf("package %s: %v", importPath, typeErr)
	}
	if err != nil {
		return nil, fmt.Errorf("package %s: %v", importPath, err)
	}
	return &Package{
		ImportPath: importPath,
		Dir:        dir,
		GoFiles:    files,
		Fset:       fset,
		Files:      astFiles,
		Types:      tpkg,
		Info:       info,
	}, nil
}

// Finding is one diagnostic that survived suppression filtering.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the go-vet-style file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Analyzer, f.Message)
}

// Run applies the analyzers to every package, filters the diagnostics
// through the //atpgvet:ignore directives, and returns the surviving
// findings sorted by position.  Malformed directives (missing the
// `-- <reason>` tail, or naming an unknown analyzer) are findings
// themselves and suppress nothing.
func Run(pkgs []*Package, analyzers []*analysis.Analyzer) []Finding {
	var findings []Finding
	for _, pkg := range pkgs {
		dirs := scanDirectives(pkg, analyzers)
		findings = append(findings, dirs.malformed...)
		seen := make(map[string]bool)
		for _, a := range analyzers {
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
			}
			name := a.Name
			pass.Report = func(d analysis.Diagnostic) {
				pos := pkg.Fset.Position(d.Pos)
				key := fmt.Sprintf("%s|%s|%s", name, pos, d.Message)
				if seen[key] || dirs.suppressed(name, pos) {
					return
				}
				seen[key] = true
				findings = append(findings, Finding{Analyzer: name, Pos: pos, Message: d.Message})
			}
			if _, err := a.Run(pass); err != nil {
				findings = append(findings, Finding{
					Analyzer: a.Name,
					Message:  fmt.Sprintf("internal error: %v", err),
				})
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return findings
}

// IgnorePrefix is the suppression directive: a comment of the form
//
//	//atpgvet:ignore <analyzer> -- <reason>
//
// on the diagnostic's line (or the line directly above it) suppresses that
// analyzer's diagnostics on the line.  The reason is mandatory: a directive
// without one is itself reported and suppresses nothing.
const IgnorePrefix = "//atpgvet:ignore"

type directives struct {
	// byKey maps "file:line:analyzer" to true for well-formed directives.
	byKey     map[string]bool
	malformed []Finding
}

func (d *directives) suppressed(analyzer string, pos token.Position) bool {
	return d.byKey[fmt.Sprintf("%s:%d:%s", pos.Filename, pos.Line, analyzer)]
}

// scanDirectives collects the //atpgvet:ignore directives of a package.  A
// directive on line N suppresses matching diagnostics on line N and line
// N+1, so both trailing (same line) and preceding (own line) placement work.
func scanDirectives(pkg *Package, analyzers []*analysis.Analyzer) *directives {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	d := &directives{byKey: make(map[string]bool)}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, IgnorePrefix) {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				rest := strings.TrimSpace(strings.TrimPrefix(c.Text, IgnorePrefix))
				name, tail, _ := strings.Cut(rest, " ")
				tail = strings.TrimSpace(tail)
				reason, hasReason := "", false
				if after, ok := strings.CutPrefix(tail, "--"); ok {
					reason, hasReason = strings.TrimSpace(after), true
				}
				switch {
				// A "name" of "--" (reason with no analyzer) or "//" (a
				// comment directly after the prefix) means no analyzer was
				// named at all.
				case name == "" || name == "--" || strings.HasPrefix(name, "//"):
					d.malformed = append(d.malformed, Finding{
						Analyzer: "atpgvet", Pos: pos,
						Message: fmt.Sprintf("malformed directive %q: want %s <analyzer> -- <reason>", c.Text, IgnorePrefix),
					})
				case !known[name]:
					d.malformed = append(d.malformed, Finding{
						Analyzer: "atpgvet", Pos: pos,
						Message: fmt.Sprintf("directive suppresses unknown analyzer %q", name),
					})
				case !hasReason || strings.TrimSpace(reason) == "":
					d.malformed = append(d.malformed, Finding{
						Analyzer: name, Pos: pos,
						Message: fmt.Sprintf("suppression of %q needs a reason: %s %s -- <why>", name, IgnorePrefix, name),
					})
				default:
					// Suppress on the directive's own line and the next line.
					d.byKey[fmt.Sprintf("%s:%d:%s", pos.Filename, pos.Line, name)] = true
					d.byKey[fmt.Sprintf("%s:%d:%s", pos.Filename, pos.Line+1, name)] = true
				}
			}
		}
	}
	return d
}
