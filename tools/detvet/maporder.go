package main

import (
	"go/ast"
	"go/types"
)

// maporder flags `for … range` over a map in the deterministic packages.
// Go rerandomizes map iteration order on every range statement, so any
// computation that observes the order is nondeterministic by construction.
//
// Three shapes are allowed without annotation because order provably does
// not escape:
//
//   - delete-only bodies: every statement is delete(m, k) on the ranged map
//     (the idiomatic compiler-optimized map clear);
//   - collect-then-sort: the body only appends keys/values to slices that
//     the same function later passes to a sort.*/slices.* call;
//   - loops annotated //detvet:orderfree <justification>, which is the
//     contract that the body commutes (backed by a commuting-order test).
var maporder = &Analyzer{
	Name:       "maporder",
	Annotation: "orderfree",
	Restrict: []string{
		"rfdet/internal/core",
		"rfdet/internal/mem",
		"rfdet/internal/slicestore",
	},
	Run: runMaporder,
}

func runMaporder(pass *Pass) {
	for _, f := range pass.Files {
		// Collect function bodies so collect-then-sort can look for the
		// sort call that follows the loop in the same function.
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return false
			}
			stack = append(stack, n)
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := pass.Info.Types[rs.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			if deleteOnlyBody(pass.Info, rs) {
				return true
			}
			if collectThenSort(pass, rs, enclosingFunc(stack)) {
				return true
			}
			pass.Reportf(rs.Pos(),
				"nondeterministic iteration over map %s: sort the keys before use, or annotate //detvet:orderfree with a justification and a commuting-order test",
				types.ExprString(rs.X))
			return true
		})
	}
}

// enclosingFunc returns the innermost function body on the inspection stack.
func enclosingFunc(stack []ast.Node) *ast.BlockStmt {
	for i := len(stack) - 1; i >= 0; i-- {
		switch fn := stack[i].(type) {
		case *ast.FuncDecl:
			return fn.Body
		case *ast.FuncLit:
			return fn.Body
		}
	}
	return nil
}

// deleteOnlyBody reports whether every statement of the range body is
// delete(m, …) on the ranged map itself.
func deleteOnlyBody(info *types.Info, rs *ast.RangeStmt) bool {
	if len(rs.Body.List) == 0 {
		return false
	}
	ranged := types.ExprString(rs.X)
	for _, stmt := range rs.Body.List {
		es, ok := stmt.(*ast.ExprStmt)
		if !ok {
			return false
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok || !isBuiltin(info, call, "delete") || len(call.Args) != 2 {
			return false
		}
		if types.ExprString(call.Args[0]) != ranged {
			return false
		}
	}
	return true
}

// collectThenSort reports whether the range body only appends to local
// slices that are sorted later in the enclosing function: the map order is
// destroyed before any use.
func collectThenSort(pass *Pass, rs *ast.RangeStmt, fn *ast.BlockStmt) bool {
	if fn == nil || len(rs.Body.List) == 0 {
		return false
	}
	// Every body statement must be `x = append(x, …)`.
	targets := map[string]bool{}
	for _, stmt := range rs.Body.List {
		as, ok := stmt.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return false
		}
		lhs, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return false
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok || !isBuiltin(pass.Info, call, "append") {
			return false
		}
		targets[lhs.Name] = true
	}
	// A sort.*/slices.* call after the loop must mention every target.
	sorted := map[string]bool{}
	ast.Inspect(fn, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkgID, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pn := pkgName(pass.Info, pkgID)
		if pn == nil {
			return true
		}
		if path := pn.Imported().Path(); path != "sort" && path != "slices" {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(a ast.Node) bool {
				if id, ok := a.(*ast.Ident); ok && targets[id.Name] {
					sorted[id.Name] = true
				}
				return true
			})
		}
		return true
	})
	return len(sorted) == len(targets)
}
