package main

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// statwire is the whole-program stats-wiring analyzer (DESIGN.md §17). The
// api.Stats struct is the runtime's observability contract: every counter in
// it claims to describe something the runtime did. A counter nobody
// increments reports zero forever; a counter nobody prints is write-only
// noise. Both are silently dead code that a per-package analyzer cannot see,
// so statwire runs only when detvet's patterns cover the whole module
// (`go run ./tools/detvet ./...`), where every package is loaded together.
//
// For each numeric field of the Stats struct it checks:
//
//  1. incremented: some package writes the field (assignment, op-assign or
//     ++/--) outside methods of Stats itself — Stats.Add touches every
//     field, so writes inside Stats methods prove nothing;
//  2. surfaced: some surface package (the harness or a cmd/ binary) reads
//     the field, so the counter reaches a report table.
//
// A deliberately unwired field (kept for report-format compatibility, or
// populated only by Add aggregation) is annotated //detvet:statwire <why>.
var statwire = &Analyzer{
	Name: "statwire",
}

// statwireConfig tells the global pass which packages play which roles. The
// fixture runner points every role at the fixture package.
type statwireConfig struct {
	statsPkg    string   // package declaring the Stats struct
	statsType   string   // the struct's type name
	surfacePkgs []string // path prefixes whose reads count as "surfaced"
}

func defaultStatwireConfig() statwireConfig {
	return statwireConfig{
		statsPkg:    "rfdet/internal/api",
		statsType:   "Stats",
		surfacePkgs: []string{"rfdet/internal/harness", "rfdet/cmd/"},
	}
}

// statField is the wiring state of one Stats counter.
type statField struct {
	obj         *types.Var
	name        string
	pos         token.Pos
	incremented bool
	surfaced    bool
}

// runStatwire runs the global pass over one Pass per loaded package. Every
// pass must share a single FileSet and type-check universe (the driver
// guarantees this) so field objects resolve identically across
// packages. Diagnostics are reported through the stats package's own pass,
// which carries the //detvet:statwire suppression intervals.
func runStatwire(passes []*Pass, cfg statwireConfig) {
	var statsPass *Pass
	for _, p := range passes {
		if p.PkgPath == cfg.statsPkg {
			statsPass = p
			break
		}
	}
	if statsPass == nil {
		return // stats package not in the load set; nothing to check
	}

	fields := collectStatFields(statsPass, cfg)
	if len(fields) == 0 {
		return
	}
	byObj := make(map[*types.Var]*statField, len(fields))
	for _, f := range fields {
		byObj[f.obj] = f
	}

	var statsType types.Type
	if tn, ok := statsPass.Pkg.Scope().Lookup(cfg.statsType).(*types.TypeName); ok {
		statsType = tn.Type()
	}

	for _, p := range passes {
		surface := false
		for _, prefix := range cfg.surfacePkgs {
			if p.PkgPath == strings.TrimSuffix(prefix, "/") || strings.HasPrefix(p.PkgPath, prefix) {
				surface = true
				break
			}
		}
		scanStatUses(p, byObj, statsType, surface)
	}

	// Report in declaration order so output is stable.
	sort.Slice(fields, func(i, j int) bool { return fields[i].pos < fields[j].pos })
	for _, f := range fields {
		if !f.incremented {
			statsPass.Reportf(f.pos,
				"counter %s.%s is never incremented outside %s methods: wire it up or annotate //detvet:statwire",
				cfg.statsType, f.name, cfg.statsType)
		}
		if !f.surfaced {
			statsPass.Reportf(f.pos,
				"counter %s.%s is never surfaced in a harness table or report printer: print it or annotate //detvet:statwire",
				cfg.statsType, f.name)
		}
	}
}

// collectStatFields finds the Stats struct declaration and returns its
// numeric fields.
func collectStatFields(p *Pass, cfg statwireConfig) []*statField {
	var fields []*statField
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || ts.Name.Name != cfg.statsType {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				for _, name := range field.Names {
					obj, _ := p.Info.Defs[name].(*types.Var)
					if obj == nil || !isNumericType(obj.Type()) {
						continue
					}
					fields = append(fields, &statField{obj: obj, name: name.Name, pos: name.Pos()})
				}
			}
			return false
		})
	}
	return fields
}

func isNumericType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsInteger|types.IsFloat) != 0
}

// scanStatUses walks one package for writes (counting toward incremented,
// except inside Stats methods) and reads (counting toward surfaced when the
// package is a surface package).
func scanStatUses(p *Pass, byObj map[*types.Var]*statField, statsType types.Type, surface bool) {
	resolve := func(e ast.Expr) *statField {
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok {
			return nil
		}
		s, ok := p.Info.Selections[sel]
		if !ok || s.Kind() != types.FieldVal {
			return nil
		}
		v, ok := s.Obj().(*types.Var)
		if !ok {
			return nil
		}
		return byObj[v]
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			inStatsMethod := false
			if fd.Recv != nil && len(fd.Recv.List) == 1 && statsType != nil {
				if tv, ok := p.Info.Types[fd.Recv.List[0].Type]; ok {
					t := tv.Type
					if ptr, ok := t.(*types.Pointer); ok {
						t = ptr.Elem()
					}
					inStatsMethod = types.Identical(t, statsType)
				}
			}
			writeTargets := map[ast.Expr]bool{}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						writeTargets[ast.Unparen(lhs)] = true
					}
				case *ast.IncDecStmt:
					writeTargets[ast.Unparen(n.X)] = true
				}
				return true
			})
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				sf := resolve(sel)
				if sf == nil {
					return true
				}
				if writeTargets[sel] {
					if !inStatsMethod {
						sf.incremented = true
					}
					// An op-assign (+=) reads too, but a counter bump is not
					// "surfacing"; only pure reads count below.
					return true
				}
				if surface && !inStatsMethod {
					sf.surfaced = true
				}
				return true
			})
		}
	}
}
