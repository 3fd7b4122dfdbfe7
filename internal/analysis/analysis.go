// Package analysis is a small, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis vocabulary (Analyzer, Pass, Diagnostic)
// plus the tofuvet allow-comment escape hatch and a shared runner.
//
// The build environment of this repository has no module proxy access, so
// the upstream x/tools framework cannot be vendored; the shim keeps the
// analyzer code source-compatible with it (same field names, same Run
// signature) so that migrating to the real framework is a mechanical
// import swap. Only the features the tofuvet analyzers need are
// implemented: no facts, no sub-analyses, no suggested fixes.
//
// # Escape hatch
//
// A diagnostic can be suppressed with an allow directive:
//
//	//tofuvet:allow <check> <justification...>
//
// placed on the flagged line itself, on the line directly above it, or in
// the doc comment of the enclosing function declaration (which allows the
// whole function body). Each analyzer honors a fixed set of check tokens
// (see Analyzer.AllowChecks); a directive naming any other token is inert.
// The justification is mandatory by convention — a directive with no
// explanation should be rejected in review.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one static-analysis check. The field set mirrors
// golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and CLI flags.
	Name string
	// Doc is the one-paragraph help text; its first line maps the check to
	// the repo invariant it guards.
	Doc string
	// AllowChecks lists the //tofuvet:allow tokens that suppress this
	// analyzer's diagnostics. Empty means the analyzer has no escape hatch.
	AllowChecks []string
	// Run executes the check over one package.
	Run func(*Pass) (any, error)
}

// A Pass carries one package's syntax and type information to an
// analyzer's Run function.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Report delivers one diagnostic. The runner installs a filter here
	// that drops diagnostics suppressed by allow directives.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// IsTestFile reports whether the file containing pos is a _test.go file.
// The analyzers check production code only: tests measure wall-clock time
// and build throwaway maps on purpose.
func (p *Pass) IsTestFile(f *ast.File) bool {
	tf := p.Fset.File(f.Pos())
	return tf != nil && strings.HasSuffix(tf.Name(), "_test.go")
}

// A Diagnostic is one finding, positioned in the pass's FileSet.
type Diagnostic struct {
	Pos     token.Pos
	Message string
	// Analyzer is filled by the runner.
	Analyzer string
}

// Finding is a positioned diagnostic as returned by Run: the file position
// is resolved so callers can print or sort without the FileSet.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s [%s]", f.Pos, f.Message, f.Analyzer)
}

// AllowDirective is the comment prefix of the escape hatch.
const AllowDirective = "//tofuvet:allow"

// allowIndex records which (file, line) pairs and which function bodies
// carry an allow directive, per check token.
type allowIndex struct {
	// lines maps check token -> filename -> set of allowed lines.
	lines map[string]map[string]map[int]bool
	// spans maps check token -> list of [start, end] Pos intervals
	// (function bodies whose doc comment carries the directive).
	spans map[string][]posSpan
}

type posSpan struct{ start, end token.Pos }

func buildAllowIndex(fset *token.FileSet, files []*ast.File) *allowIndex {
	idx := &allowIndex{
		lines: map[string]map[string]map[int]bool{},
		spans: map[string][]posSpan{},
	}
	addLine := func(check, file string, line int) {
		byFile := idx.lines[check]
		if byFile == nil {
			byFile = map[string]map[int]bool{}
			idx.lines[check] = byFile
		}
		if byFile[file] == nil {
			byFile[file] = map[int]bool{}
		}
		byFile[file][line] = true
	}
	for _, f := range files {
		// Doc-comment directives allow the whole declaration they document.
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				if check, ok := parseAllow(c.Text); ok {
					idx.spans[check] = append(idx.spans[check], posSpan{fd.Pos(), fd.End()})
				}
			}
		}
		// Line directives allow their own line (trailing comment) and the
		// next line (comment-above placement).
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				check, ok := parseAllow(c.Text)
				if !ok {
					continue
				}
				posn := fset.Position(c.Pos())
				addLine(check, posn.Filename, posn.Line)
				addLine(check, posn.Filename, posn.Line+1)
			}
		}
	}
	return idx
}

// parseAllow extracts the check token from an allow directive comment.
func parseAllow(text string) (check string, ok bool) {
	if !strings.HasPrefix(text, AllowDirective) {
		return "", false
	}
	rest := strings.TrimPrefix(text, AllowDirective)
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return "", false
	}
	return fields[0], true
}

func (idx *allowIndex) allowed(checks []string, fset *token.FileSet, pos token.Pos) bool {
	posn := fset.Position(pos)
	for _, check := range checks {
		if byFile := idx.lines[check]; byFile != nil {
			if byFile[posn.Filename][posn.Line] {
				return true
			}
		}
		for _, sp := range idx.spans[check] {
			if sp.start <= pos && pos < sp.end {
				return true
			}
		}
	}
	return false
}

// Run executes the analyzers over one typechecked package and returns the
// surviving findings sorted by position. Diagnostics suppressed by allow
// directives are dropped here, so every driver (standalone, vettool,
// analysistest) shares the same escape-hatch semantics. Identical
// diagnostics — same position, analyzer, and message, as happens when an
// analyzer's traversal visits one node through two parents — are
// deduplicated to a single finding.
func Run(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer) ([]Finding, error) {
	allow := buildAllowIndex(fset, files)
	var out []Finding
	seen := map[Finding]bool{}
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
		}
		name := a.Name
		pass.Report = func(d Diagnostic) {
			if allow.allowed(pass.Analyzer.AllowChecks, fset, d.Pos) {
				return
			}
			f := Finding{Pos: fset.Position(d.Pos), Analyzer: name, Message: d.Message}
			if seen[f] {
				return
			}
			seen[f] = true
			out = append(out, f)
		}
		if _, err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return out, nil
}

// funcOf resolves the called function object of a call expression, or nil.
func funcOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}
