package main

import (
	"go/ast"
	"strconv"
)

// wallclock flags wall-clock reads — time.Now, time.Since and anything from
// math/rand — outside the packages whose job is wall-time measurement.
// Deterministic code must take time from the virtual clock (vtime) and
// durations from internal/stats' nanos plumbing; a wall-clock read anywhere
// else either leaks host timing into results or is dead measurement code.
var wallclock = &Analyzer{
	Name: "wallclock",
	Exempt: []string{
		"rfdet/internal/stats",
		"rfdet/internal/trace",
		"rfdet/internal/harness",
	},
	Run: runWallclock,
}

func runWallclock(pass *Pass) {
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if path == "math/rand" || path == "math/rand/v2" {
				pass.Reportf(imp.Pos(),
					"import of %s in a deterministic package: randomness must come from the workload seed, or be annotated //detvet:wallclock", path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
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
			switch pn.Imported().Path() {
			case "time":
				if sel.Sel.Name == "Now" || sel.Sel.Name == "Since" {
					pass.Reportf(sel.Pos(),
						"wall-clock read time.%s in a deterministic package: use internal/stats (measurement) or vtime (modeled time), or annotate //detvet:wallclock", sel.Sel.Name)
				}
			case "math/rand", "math/rand/v2":
				pass.Reportf(sel.Pos(),
					"use of %s.%s in a deterministic package: randomness must come from the workload seed, or be annotated //detvet:wallclock", pkgID.Name, sel.Sel.Name)
			}
			return true
		})
	}
}
