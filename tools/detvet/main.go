package main

import (
	"flag"
	"go/ast"
	"go/token"
	"go/types"
	"log"
)

// analyzers is the determinism suite, in report order. Each runs on one
// package at a time.
var analyzers = []*Analyzer{maporder, wallclock, nativesync, lockcheck}

// main loads the packages matching its pattern arguments (default ./...)
// via `go list -deps -export` and runs the suite on every rfdet package
// (`go run ./tools/detvet ./...`, or `make detvet`). It exits 0 on a clean
// tree and 2 on findings.
func main() {
	log.SetFlags(0)
	log.SetPrefix("detvet: ")

	flag.Parse()
	run(flag.Args())
}

// analyze runs every applicable analyzer over one type-checked package and
// returns the findings in (analyzer, position) order.
func analyze(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, pkgPath string) []finding {
	var out []finding
	for _, a := range analyzers {
		if !a.applies(pkgPath) {
			continue
		}
		pass := &Pass{
			Analyzer: a,
			Fset:     fset,
			Files:    files,
			Pkg:      pkg,
			Info:     info,
			PkgPath:  pkgPath,
		}
		pass.prepareAnnotations()
		a.Run(pass)
		for _, d := range pass.diags {
			out = append(out, newFinding(fset, d, a.Name))
		}
	}
	return out
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Instances:  make(map[*ast.Ident]types.Instance),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
