package main

import (
	"go/ast"
	"go/token"
	"go/types"
)

// nativesync flags raw Go concurrency in internal/core: go statements, sync
// package primitives and channel operations. Everything the deterministic
// runtime schedules must go through the monitor + Kendo turn protocol; a
// stray goroutine, lock or channel is a host-scheduler dependency that the
// determinism proof does not cover. The audited implementation sites (the
// global monitor itself, the wake mailboxes, the bounded diff worker pool)
// carry //detvet:nativesync annotations explaining why they are safe.
var nativesync = &Analyzer{
	Name:     "nativesync",
	Restrict: []string{"rfdet/internal/core", "rfdet/internal/slicestore"},
	Run:      runNativesync,
}

func runNativesync(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(n.Pos(),
					"go statement outside the monitor protocol: thread creation must be ordered by Kendo turns, or annotated //detvet:nativesync")
			case *ast.SendStmt:
				pass.Reportf(n.Pos(),
					"channel send outside the monitor protocol; annotate //detvet:nativesync with a justification")
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					pass.Reportf(n.Pos(),
						"channel receive outside the monitor protocol; annotate //detvet:nativesync with a justification")
				}
			case *ast.RangeStmt:
				if tv, ok := pass.Info.Types[n.X]; ok {
					if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
						pass.Reportf(n.Pos(),
							"channel range outside the monitor protocol; annotate //detvet:nativesync with a justification")
					}
				}
			case *ast.CallExpr:
				if isBuiltin(pass.Info, n, "make") {
					if tv, ok := pass.Info.Types[n]; ok {
						if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
							pass.Reportf(n.Pos(),
								"channel creation outside the monitor protocol; annotate //detvet:nativesync with a justification")
						}
					}
				}
				if isBuiltin(pass.Info, n, "close") {
					pass.Reportf(n.Pos(),
						"channel close outside the monitor protocol; annotate //detvet:nativesync with a justification")
				}
			case *ast.SelectorExpr:
				pkgID, ok := n.X.(*ast.Ident)
				if !ok {
					return true
				}
				if pn := pkgName(pass.Info, pkgID); pn != nil && pn.Imported().Path() == "sync" {
					pass.Reportf(n.Pos(),
						"native synchronization sync.%s outside the monitor protocol; annotate //detvet:nativesync with a justification", n.Sel.Name)
				}
			}
			return true
		})
	}
}
