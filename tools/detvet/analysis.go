// Package main implements detvet, the determinism analyzer suite for this
// repository, run over the whole module:
//
//	go run ./tools/detvet ./...
//
// Four analyzers enforce the invariants the deterministic runtime depends on
// (DESIGN.md §12, §16):
//
//   - maporder: no raw iteration over Go maps in the deterministic packages
//     (internal/core, internal/mem, internal/slicestore). Go randomizes map
//     iteration order per range statement, so any map-order-dependent
//     computation is a nondeterminism bug by construction.
//   - wallclock: no wall-clock reads (time.Now, time.Since) or math/rand
//     outside the packages whose whole job is wall-time measurement
//     (internal/stats, internal/trace, internal/harness).
//   - nativesync: no raw go statements, sync primitives or channel
//     operations in internal/core outside the audited monitor protocol.
//   - lockcheck: guarded fields accessed only under their sync.Mutex, and
//     lock effects balanced at every function exit.
//
// A finding is silenced by an annotation comment on the same line as the
// offending construct, or on the line directly above it:
//
//	//detvet:<analyzer> <justification>
//
// The justification is mandatory: a bare annotation is itself a finding.
// An annotation suppresses every finding of its analyzer inside the full
// syntax node it is attached to (so one annotation before a `go func` or a
// `select` covers the channel operations in its body). A //detvet: token that
// no analyzer reads is a finding too.
package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer is one named determinism check.
type Analyzer struct {
	Name string // analyzer name for report output

	// Annotation is the token after "//detvet:" that silences this
	// analyzer. Defaults to Name.
	Annotation string

	// Restrict limits the analyzer to these import paths. Empty means every
	// package.
	Restrict []string
	// Exempt skips these import paths even when Restrict is empty.
	Exempt []string

	Run func(*Pass)
}

// token is the annotation token that silences the analyzer.
func (a *Analyzer) token() string {
	if a.Annotation != "" {
		return a.Annotation
	}
	return a.Name
}

// applies reports whether the analyzer runs on the package with the given
// import path.
func (a *Analyzer) applies(pkgPath string) bool {
	for _, p := range a.Exempt {
		if p == pkgPath {
			return false
		}
	}
	if len(a.Restrict) == 0 {
		return true
	}
	for _, p := range a.Restrict {
		if p == pkgPath {
			return true
		}
	}
	return false
}

// A Pass is one analyzer applied to one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files never holds _test.go files (tests legitimately spawn goroutines,
	// read clocks and iterate maps): the driver loads go list's GoFiles.
	Files   []*ast.File
	Pkg     *types.Package
	Info    *types.Info
	PkgPath string

	diags       []Diagnostic
	suppression []posRange // intervals silenced by this analyzer's annotations
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

type posRange struct{ lo, hi token.Pos }

// Reportf records a finding unless an annotation suppresses it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	for _, r := range p.suppression {
		if pos >= r.lo && pos < r.hi {
			return
		}
	}
	p.diags = append(p.diags, Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// annotationPrefix is the comment marker all analyzers share.
const annotationPrefix = "detvet:"

// prepareAnnotations scans the pass's files for //detvet:<name> comments
// belonging to this analyzer, records the suppressed source intervals, and
// reports bare annotations (missing justification) as findings. Must run
// before the analyzer body so suppression is in place.
func (p *Pass) prepareAnnotations() {
	tok := p.Analyzer.token()
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//"+annotationPrefix)
				if !ok {
					continue
				}
				name, rest, _ := strings.Cut(text, " ")
				if name != tok {
					continue
				}
				// Anything after an embedded "//" is a trailing comment
				// (e.g. the fixture "// want" markers), not justification.
				if i := strings.Index(rest, "//"); i >= 0 {
					rest = rest[:i]
				}
				if strings.TrimSpace(rest) == "" {
					p.diags = append(p.diags, Diagnostic{
						Pos:     c.Pos(),
						Message: fmt.Sprintf("//detvet:%s annotation requires a justification", tok),
					})
					continue
				}
				if n := p.annotatedNode(f, c); n != nil {
					p.suppression = append(p.suppression, posRange{n.Pos(), n.End()})
				}
			}
		}
	}
}

// annotatedNode resolves the syntax node an annotation comment governs: the
// outermost non-comment node that starts on the comment's line (end-of-line
// annotation) or on the following line (annotation on its own line).
func (p *Pass) annotatedNode(f *ast.File, c *ast.Comment) ast.Node {
	line := p.Fset.Position(c.Pos()).Line
	var found ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if found != nil || n == nil {
			return false
		}
		switch n.(type) {
		case *ast.File, *ast.Comment, *ast.CommentGroup:
			return true
		}
		start := p.Fset.Position(n.Pos()).Line
		if start == line || start == line+1 {
			// Skip the annotation comment's own group neighbours: a node
			// must contain code, which any non-comment node does.
			if n.Pos() != c.Pos() {
				found = n
				return false
			}
		}
		return true
	})
	return found
}

// pkgName resolves an identifier to the package it names, or nil.
func pkgName(info *types.Info, id *ast.Ident) *types.PkgName {
	if pn, ok := info.Uses[id].(*types.PkgName); ok {
		return pn
	}
	return nil
}

// isBuiltin reports whether the call's function is the named builtin.
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}
