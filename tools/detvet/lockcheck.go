package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// lockcheck is the flow-sensitive lock-discipline analyzer (DESIGN.md §16).
// It checks three properties over an intraprocedural held-lock lattice:
//
//  1. Guarded fields. A struct field annotated //detvet:guardedby <spec> may
//     only be accessed while the named mutex is provably held. The lattice is
//     a must-hold set computed structurally over each function body: Lock
//     adds, Unlock removes, `defer mu.Unlock()` keeps the lock held to every
//     exit, and control-flow joins intersect. Function boundaries are crossed
//     through effect annotations (//detvet:holds, //detvet:acquires,
//     //detvet:releases) so the repo's Locked-suffix helpers check precisely.
//  2. Lock order. Mutex fields annotated //detvet:lockorder <rank> form a
//     global acquisition order (documented in DESIGN.md §16); acquiring a
//     lower-ranked lock while holding a higher-ranked one is an inversion.
//     Two instances of one class may be held together: their order is a
//     runtime invariant, not a static one.
//  3. Held-across-blocking. A blocking operation — channel send/receive,
//     select without default, sync.Cond.Wait or sync.WaitGroup.Wait —
//     executed while any annotated lock is held is a latent deadlock against
//     the deterministic turn protocol and is reported.
//
// Unannotated fields are not exempt: any field sharing a declaration
// paragraph (a run of fields with no blank line between them) with a
// sync.Mutex must carry //detvet:guardedby or //detvet:notguarded <why>, so a
// new field slipped under a mutex without a documented discipline fails the
// build.
//
// The model is sync.Mutex's Lock and Unlock and nothing else. What it leaves
// out is reported, never skipped: a sync.RWMutex field or call, a TryLock, a
// guardedby spec naming anything but one mutex. A lock reached through a
// local alias (`m := &b.mu; m.Lock()`) is a different lock from b.mu, so an
// access it should cover reads as unheld.
//
// A finding the lattice cannot discharge but a human can (turn-exclusivity,
// quiescence after wg.Wait) is silenced by //detvet:lockcheck <why>; the
// suppression certifies that the access is ordered by something stronger
// than the annotated mutex (DESIGN.md §16, escape hatches).
var lockcheck = &Analyzer{
	Name: "lockcheck",
	Restrict: []string{
		"rfdet/internal/core",
		"rfdet/internal/slicestore",
		"rfdet/internal/mem",
		"rfdet/internal/alloc",
		"rfdet/internal/kendo",
	},
	Run: runLockcheck,
}

// lockcheckKeywords are the annotation tokens lockcheck's grammar reads
// besides its own suppression token.
var lockcheckKeywords = []string{"guardedby", "notguarded", "lockorder", "holds", "acquires", "releases"}

// fieldGuard is a parsed guardedby specification: either a sibling mutex
// field of the same struct (resolved against the accessed expression's base)
// or a class `Type.field` (any held instance of that mutex field satisfies
// it).
type fieldGuard struct {
	sibling string
	class   string
	spec    string // original spec text, for diagnostics
}

// lockRef is one lock named by a function-level effect annotation, resolved
// lazily against the function's receiver and parameters.
type lockRef struct {
	base  string   // receiver/parameter name ("" for class form)
	path  []string // field path below the base
	class string   // class form: "Type.field"
	spec  string   // original text, for diagnostics
}

// funcEffects are the lock-relevant annotations of one function.
type funcEffects struct {
	holds    []lockRef // held on entry and still held on exit
	acquires []lockRef // acquired by the function, held on exit
	releases []lockRef // released by the function
}

// heldLock is one element of the must-hold set.
type heldLock struct {
	class    string // "Type.field" when statically known, else ""
	deferred bool   // a registered defer releases it at every exit
	pos      token.Pos
}

// lockSet maps canonical lock keys to their held state.
type lockSet map[string]heldLock

func (s lockSet) clone() lockSet {
	c := make(lockSet, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

// flowState is the abstract state at one program point.
type flowState struct {
	locks lockSet
	dead  bool // unreachable (after return/panic/branch)
}

func newFlowState() flowState { return flowState{locks: lockSet{}} }

func (f flowState) clone() flowState { return flowState{locks: f.locks.clone(), dead: f.dead} }

// meet intersects two states: a lock is held after a join only if it is held
// on every incoming path; a deferred release survives only if registered on
// both.
func meet(a, b flowState) flowState {
	if a.dead {
		return b.clone()
	}
	if b.dead {
		return a.clone()
	}
	out := flowState{locks: lockSet{}}
	for k, va := range a.locks {
		vb, ok := b.locks[k]
		if !ok {
			continue
		}
		out.locks[k] = heldLock{
			class:    va.class,
			deferred: va.deferred && vb.deferred,
			pos:      va.pos,
		}
	}
	return out
}

// equalStates reports whether two states hold the same locks with the same
// deferred releases (the fixpoint test for loop bodies).
func equalStates(a, b flowState) bool {
	if a.dead != b.dead || len(a.locks) != len(b.locks) {
		return false
	}
	for k, va := range a.locks {
		vb, ok := b.locks[k]
		if !ok || va.deferred != vb.deferred {
			return false
		}
	}
	return true
}

// lockcheckState is the package-level context shared by every function
// analysis of one pass.
type lockcheckState struct {
	pass    *Pass
	guards  map[*types.Var]*fieldGuard // annotated fields
	ranks   map[string]int             // lock class → //detvet:lockorder rank
	effects map[*types.Func]*funcEffects
}

func runLockcheck(pass *Pass) {
	lc := &lockcheckState{
		pass:    pass,
		guards:  map[*types.Var]*fieldGuard{},
		ranks:   map[string]int{},
		effects: map[*types.Func]*funcEffects{},
	}
	for _, f := range pass.Files {
		lc.collectStructAnnotations(f)
	}
	for _, f := range pass.Files {
		lc.collectFuncAnnotations(f)
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			lc.checkFunc(fd)
		}
	}
}

// --- annotation collection -------------------------------------------------

// fieldAnnotation extracts the `//detvet:<want> rest` line attached to a
// struct field (doc comment or end-of-line comment), or "", false.
func fieldAnnotation(field *ast.Field, want string) (string, bool) {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, "//"+annotationPrefix)
			if !ok {
				continue
			}
			name, rest, _ := strings.Cut(text, " ")
			if name != want {
				continue
			}
			if i := strings.Index(rest, "//"); i >= 0 {
				rest = rest[:i]
			}
			return strings.TrimSpace(rest), true
		}
	}
	return "", false
}

// collectStructAnnotations parses guardedby/notguarded/lockorder field
// annotations, reports sync.RWMutex fields, which the model leaves out, and
// enforces the paragraph rule: every non-synchronization field sharing a
// declaration paragraph with a mutex must be annotated.
func (lc *lockcheckState) collectStructAnnotations(f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if !ok {
			return true
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok {
			return true
		}
		lc.collectStruct(ts.Name.Name, st)
		return true
	})
}

func (lc *lockcheckState) collectStruct(typeName string, st *ast.StructType) {
	type fieldInfo struct {
		field *ast.Field
		name  *ast.Ident // nil for embedded/blank paragraphs we skip
	}
	// Split the field list into paragraphs: a blank line (measured from the
	// previous field's end to the next field's doc comment or name) starts a
	// new one.
	var paragraphs [][]fieldInfo
	var cur []fieldInfo
	lastEnd := -1
	for _, field := range st.Fields.List {
		start := field.Pos()
		if field.Doc != nil {
			start = field.Doc.Pos()
		}
		line := lc.pass.Fset.Position(start).Line
		if lastEnd >= 0 && line > lastEnd+1 && len(cur) > 0 {
			paragraphs = append(paragraphs, cur)
			cur = nil
		}
		lastEnd = lc.pass.Fset.Position(field.End()).Line
		if isNamedSyncType(lc.pass.Info.TypeOf(field.Type), "RWMutex") {
			lc.pass.Reportf(field.Pos(), "sync.RWMutex field in %s: lockcheck models sync.Mutex only", typeName)
		}
		if len(field.Names) == 0 {
			cur = append(cur, fieldInfo{field: field})
			continue
		}
		for _, name := range field.Names {
			cur = append(cur, fieldInfo{field: field, name: name})
		}
	}
	if len(cur) > 0 {
		paragraphs = append(paragraphs, cur)
	}

	for _, para := range paragraphs {
		var mutexName string
		for _, fi := range para {
			if fi.name != nil && lc.isMutexField(fi.name) {
				mutexName = fi.name.Name
				break
			}
		}
		for _, fi := range para {
			if fi.name == nil || fi.name.Name == "_" {
				continue // embedded or padding field: nothing to guard
			}
			obj, _ := lc.pass.Info.Defs[fi.name].(*types.Var)
			if obj == nil {
				continue
			}
			isMutex := lc.isMutexField(fi.name)

			if spec, ok := fieldAnnotation(fi.field, "lockorder"); ok {
				rankStr, _, _ := strings.Cut(spec, " ")
				rank, err := strconv.Atoi(rankStr)
				if !isMutex || err != nil {
					lc.pass.Reportf(fi.name.Pos(),
						"//detvet:lockorder must carry an integer rank and annotate a sync.Mutex field")
				} else {
					lc.ranks[typeName+"."+fi.name.Name] = rank
				}
			}

			spec, hasGuard := fieldAnnotation(fi.field, "guardedby")
			why, hasNot := fieldAnnotation(fi.field, "notguarded")
			switch {
			case hasGuard && hasNot:
				lc.pass.Reportf(fi.name.Pos(), "field %s is annotated both //detvet:guardedby and //detvet:notguarded", fi.name.Name)
			case hasGuard:
				specTok, _, _ := strings.Cut(spec, " ")
				g := lc.parseGuard(typeName, st, fi.name, specTok)
				if g != nil {
					lc.guards[obj] = g
				}
			case hasNot:
				if why == "" {
					lc.pass.Reportf(fi.name.Pos(), "//detvet:notguarded annotation requires a justification")
				}
			case mutexName != "" && !isMutex && !isSyncExempt(obj.Type()):
				lc.pass.Reportf(fi.name.Pos(),
					"field %s shares a declaration paragraph with mutex %s but has no //detvet:guardedby or //detvet:notguarded annotation",
					fi.name.Name, mutexName)
			}
		}
	}
}

// parseGuard parses a guardedby spec: a sibling mutex field of the same
// struct or a `Type.field` class.
func (lc *lockcheckState) parseGuard(typeName string, st *ast.StructType, at *ast.Ident, spec string) *fieldGuard {
	if spec == "" {
		lc.pass.Reportf(at.Pos(), "//detvet:guardedby annotation requires a mutex name")
		return nil
	}
	if typ, field, ok := strings.Cut(spec, "."); ok {
		if !lc.classExists(typ, field) {
			lc.pass.Reportf(at.Pos(), "//detvet:guardedby %s: no mutex field %s.%s in this package", spec, typ, field)
			return nil
		}
		return &fieldGuard{class: spec, spec: spec}
	}
	if !structHasMutexField(st, spec) {
		lc.pass.Reportf(at.Pos(), "//detvet:guardedby %s: not a sibling mutex field of %s", spec, typeName)
		return nil
	}
	return &fieldGuard{sibling: spec, spec: spec}
}

// classExists reports whether Type.field names a mutex field of a struct
// type declared in this package.
func (lc *lockcheckState) classExists(typeName, field string) bool {
	obj := lc.pass.Pkg.Scope().Lookup(typeName)
	tn, ok := obj.(*types.TypeName)
	if !ok {
		return false
	}
	st, ok := tn.Type().Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if f := st.Field(i); f.Name() == field && isMutexType(f.Type()) {
			return true
		}
	}
	return false
}

func structHasMutexField(st *ast.StructType, name string) bool {
	for _, field := range st.Fields.List {
		for _, n := range field.Names {
			if n.Name == name {
				return true
			}
		}
	}
	return false
}

func (lc *lockcheckState) isMutexField(name *ast.Ident) bool {
	obj, _ := lc.pass.Info.Defs[name].(*types.Var)
	return obj != nil && isMutexType(obj.Type())
}

// isMutexType reports whether t is sync.Mutex (possibly via a pointer).
func isMutexType(t types.Type) bool { return isNamedSyncType(t, "Mutex") }

func isNamedSyncType(t types.Type, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == "sync"
}

// isSyncExempt reports types the paragraph rule never asks to annotate:
// other synchronization primitives and atomics, which carry their own
// discipline.
func isSyncExempt(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	switch obj.Pkg().Path() {
	case "sync", "sync/atomic":
		return true
	}
	return false
}

// collectFuncAnnotations parses //detvet:holds, //detvet:acquires and
// //detvet:releases annotations from function doc comments.
func (lc *lockcheckState) collectFuncAnnotations(f *ast.File) {
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Doc == nil {
			continue
		}
		fn, _ := lc.pass.Info.Defs[fd.Name].(*types.Func)
		if fn == nil {
			continue
		}
		var eff funcEffects
		any := false
		for _, c := range fd.Doc.List {
			text, ok := strings.CutPrefix(c.Text, "//"+annotationPrefix)
			if !ok {
				continue
			}
			name, rest, _ := strings.Cut(text, " ")
			if i := strings.Index(rest, "//"); i >= 0 {
				rest = rest[:i]
			}
			switch name {
			case "holds", "acquires", "releases":
				refs := lc.parseLockRefs(fd, c.Pos(), rest)
				if refs == nil {
					continue
				}
				any = true
				switch name {
				case "holds":
					eff.holds = append(eff.holds, refs...)
				case "acquires":
					eff.acquires = append(eff.acquires, refs...)
				case "releases":
					eff.releases = append(eff.releases, refs...)
				}
			}
		}
		if any {
			lc.effects[fn] = &eff
		}
	}
}

// parseLockRefs parses the space-separated lock specs of one holds/acquires/
// releases annotation. A spec is a receiver field name, a `param.field` path,
// or a `Type.field` class.
func (lc *lockcheckState) parseLockRefs(fd *ast.FuncDecl, pos token.Pos, rest string) []lockRef {
	specs := strings.Fields(rest)
	if len(specs) == 0 {
		lc.pass.Reportf(pos, "//detvet:holds/acquires/releases annotation requires at least one lock spec")
		return nil
	}
	names := map[string]bool{}
	if fd.Recv != nil && len(fd.Recv.List) == 1 && len(fd.Recv.List[0].Names) == 1 {
		names[fd.Recv.List[0].Names[0].Name] = true
	}
	if fd.Type.Params != nil {
		for _, p := range fd.Type.Params.List {
			for _, n := range p.Names {
				names[n.Name] = true
			}
		}
	}
	var refs []lockRef
	for _, spec := range specs {
		parts := strings.Split(spec, ".")
		switch {
		case len(parts) == 1:
			// Receiver field shorthand.
			if fd.Recv == nil || len(names) == 0 {
				lc.pass.Reportf(pos, "lock spec %q names a receiver field but %s has no named receiver", spec, fd.Name.Name)
				return nil
			}
			refs = append(refs, lockRef{base: fd.Recv.List[0].Names[0].Name, path: parts, spec: spec})
		case names[parts[0]]:
			refs = append(refs, lockRef{base: parts[0], path: parts[1:], spec: spec})
		case len(parts) == 2 && lc.classExists(parts[0], parts[1]):
			refs = append(refs, lockRef{class: spec, spec: spec})
		default:
			lc.pass.Reportf(pos, "lock spec %q matches neither a parameter of %s nor a Type.field mutex class", spec, fd.Name.Name)
			return nil
		}
	}
	return refs
}

// --- per-function analysis -------------------------------------------------

// funcFlow analyzes one function body.
type funcFlow struct {
	lc *lockcheckState

	// fresh marks locals bound once, to a composite literal or new(), in
	// this function: objects still thread-local, exempt from guard checks.
	fresh map[types.Object]bool

	exits    []flowState // states at every return and reachable fall-off
	breaks   []*branchTargets
	reported map[string]bool // dedup key → reported
}

// branchTargets accumulates the states flowing to a breakable construct.
type branchTargets struct {
	label     string
	isLoop    bool
	breakTo   []flowState
	continues []flowState
}

func (lc *lockcheckState) checkFunc(fd *ast.FuncDecl) {
	ff := &funcFlow{
		lc:       lc,
		fresh:    map[types.Object]bool{},
		reported: map[string]bool{},
	}
	ff.collectFresh(fd.Body)

	entry := newFlowState()
	eff := ff.funcEffectsOf(fd)
	if eff != nil {
		// holds is a held-at-entry precondition; releases implies the lock
		// is held at entry too (the function's job is to release it).
		for _, refs := range [][]lockRef{eff.holds, eff.releases} {
			for _, ref := range refs {
				key, class := ff.refKey(fd, ref)
				entry.locks[key] = heldLock{class: class, pos: fd.Pos()}
			}
		}
	}

	out := ff.walkStmt(fd.Body, entry)
	if !out.dead {
		ff.exits = append(ff.exits, out)
	}
	ff.checkExits(fd, eff, entry)
}

// funcEffectsOf returns the effect annotations of the declared function.
func (ff *funcFlow) funcEffectsOf(fd *ast.FuncDecl) *funcEffects {
	fn, _ := ff.lc.pass.Info.Defs[fd.Name].(*types.Func)
	if fn == nil {
		return nil
	}
	return ff.lc.effects[fn]
}

// refKey resolves an annotation lockRef against the declared function's
// receiver/parameter objects, returning the canonical key and class.
func (ff *funcFlow) refKey(fd *ast.FuncDecl, ref lockRef) (string, string) {
	if ref.class != "" {
		return "class:" + ref.class, ref.class
	}
	var obj types.Object
	find := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, p := range fl.List {
			for _, n := range p.Names {
				if n.Name == ref.base {
					obj = ff.lc.pass.Info.Defs[n]
				}
			}
		}
	}
	find(fd.Recv)
	find(fd.Type.Params)
	if obj == nil {
		return "unresolved:" + ref.spec, ""
	}
	key := objKey(obj)
	class := classOfChain(obj.Type(), ref.path)
	for _, f := range ref.path {
		key += "." + f
	}
	return key, class
}

// collectFresh pre-scans the body for locals assigned once, to a freshly
// constructed object.
func (ff *funcFlow) collectFresh(body *ast.BlockStmt) {
	assigns := map[types.Object]int{}
	freshCandidate := map[types.Object]bool{}
	note := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		obj := ff.lc.pass.Info.Defs[id]
		if obj == nil {
			obj = ff.lc.pass.Info.Uses[id]
		}
		if obj == nil {
			return
		}
		assigns[obj]++
		if rhs != nil && isFreshExpr(rhs) {
			freshCandidate[obj] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				var rhs ast.Expr
				if len(n.Rhs) == len(n.Lhs) {
					rhs = n.Rhs[i]
				}
				note(lhs, rhs)
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				var rhs ast.Expr
				if i < len(n.Values) {
					rhs = n.Values[i]
				}
				note(name, rhs)
			}
		case *ast.RangeStmt:
			if n.Key != nil {
				note(n.Key, nil)
			}
			if n.Value != nil {
				note(n.Value, nil)
			}
		}
		return true
	})
	for obj := range freshCandidate {
		if assigns[obj] == 1 {
			ff.fresh[obj] = true
		}
	}
}

// isFreshExpr reports whether e constructs a new object: &T{...}, T{...} or
// new(T).
func isFreshExpr(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if e.Op != token.AND {
			return false
		}
		_, ok := e.X.(*ast.CompositeLit)
		return ok
	case *ast.CallExpr:
		id, ok := e.Fun.(*ast.Ident)
		return ok && id.Name == "new"
	}
	return false
}

// objKey is the canonical root of a lock/access key: name plus definition
// position, unique within the package.
func objKey(obj types.Object) string {
	return fmt.Sprintf("%s@%d", obj.Name(), obj.Pos())
}

// keyOf canonicalizes an expression chain into a lock key: the root
// variable's object, then the selectors and indices below it.
func (ff *funcFlow) keyOf(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return ff.keyOf(e.X)
	case *ast.StarExpr:
		return ff.keyOf(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return ff.keyOf(e.X)
		}
	case *ast.Ident:
		obj := ff.lc.pass.Info.Uses[e]
		if obj == nil {
			obj = ff.lc.pass.Info.Defs[e]
		}
		if obj == nil {
			return "expr:" + e.Name
		}
		return objKey(obj)
	case *ast.SelectorExpr:
		return ff.keyOf(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return ff.keyOf(e.X) + "[" + types.ExprString(e.Index) + "]"
	}
	return "expr:" + types.ExprString(e)
}

// rootObject returns the root identifier object of a chain (for the fresh-
// local exemption), or nil.
func (ff *funcFlow) rootObject(e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return nil
			}
			e = x.X
		case *ast.Ident:
			obj := ff.lc.pass.Info.Uses[x]
			if obj == nil {
				obj = ff.lc.pass.Info.Defs[x]
			}
			return obj
		default:
			return nil
		}
	}
}

// classOf computes the "Type.field" class of a mutex selector expression
// like sh.mu, or "" when the receiver type is not a named struct.
func (ff *funcFlow) classOf(sel *ast.SelectorExpr) string {
	tv, ok := ff.lc.pass.Info.Types[sel.X]
	if !ok {
		return ""
	}
	return classOfChain(tv.Type, []string{sel.Sel.Name})
}

// classOfChain resolves a field path from a base type to its owning
// "Type.field" class.
func classOfChain(t types.Type, path []string) string {
	if len(path) == 0 {
		return ""
	}
	for i, name := range path {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		named, _ := t.(*types.Named)
		st, ok := t.Underlying().(*types.Struct)
		if !ok {
			return ""
		}
		var field *types.Var
		for j := 0; j < st.NumFields(); j++ {
			if st.Field(j).Name() == name {
				field = st.Field(j)
				break
			}
		}
		if field == nil {
			return ""
		}
		if i == len(path)-1 {
			if named == nil {
				return ""
			}
			return named.Obj().Name() + "." + name
		}
		t = field.Type()
	}
	return ""
}

// reportOnce deduplicates diagnostics per (position, message) so loop
// re-walks do not double-report.
func (ff *funcFlow) reportOnce(pos token.Pos, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	k := fmt.Sprintf("%d:%s", pos, msg)
	if ff.reported[k] {
		return
	}
	ff.reported[k] = true
	ff.lc.pass.Reportf(pos, "%s", msg)
}

// --- statement walking -----------------------------------------------------

func (ff *funcFlow) walkStmt(s ast.Stmt, in flowState) flowState {
	if s == nil {
		return in
	}
	if in.dead {
		// Still walk for nested reporting consistency? No: unreachable code
		// is not analyzed (matches the lattice's reachability).
		return in
	}
	switch s := s.(type) {
	case *ast.BlockStmt:
		st := in
		for _, stmt := range s.List {
			st = ff.walkStmt(stmt, st)
		}
		return st
	case *ast.ExprStmt:
		st := ff.walkExpr(s.X, in, false)
		// An explicit panic() statement terminates the path: locks it leaves
		// held are released by deferred unlocks (or leaked into a crash that
		// no longer cares), so the exit-balance check does not apply.
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok && isBuiltin(ff.lc.pass.Info, call, "panic") {
			st.dead = true
		}
		return st
	case *ast.AssignStmt:
		return ff.walkAssign(s, in)
	case *ast.IncDecStmt:
		return ff.walkExpr(s.X, in, true)
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok {
			return in
		}
		st := in
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, v := range vs.Values {
				st = ff.walkExpr(v, st, false)
			}
		}
		return st
	case *ast.IfStmt:
		return ff.walkIf(s, in)
	case *ast.ForStmt:
		return ff.walkFor(s, in, "")
	case *ast.RangeStmt:
		return ff.walkRange(s, in, "")
	case *ast.SwitchStmt:
		return ff.walkSwitch(s, in, "")
	case *ast.TypeSwitchStmt:
		return ff.walkTypeSwitch(s, in, "")
	case *ast.SelectStmt:
		return ff.walkSelect(s, in)
	case *ast.ReturnStmt:
		st := in
		for _, r := range s.Results {
			st = ff.walkExpr(r, st, false)
		}
		ff.exits = append(ff.exits, st)
		st = st.clone()
		st.dead = true
		return st
	case *ast.BranchStmt:
		return ff.walkBranch(s, in)
	case *ast.DeferStmt:
		return ff.walkDefer(s, in)
	case *ast.GoStmt:
		// The spawned goroutine runs later with its own locks; analyze its
		// body with an empty held set and leave the caller's state alone.
		if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
			ff.walkFuncLit(fl, newFlowState())
		}
		st := in
		for _, a := range s.Call.Args {
			st = ff.walkExpr(a, st, false)
		}
		return st
	case *ast.SendStmt:
		st := ff.walkExpr(s.Chan, in, false)
		st = ff.walkExpr(s.Value, st, false)
		ff.checkBlocking(s.Pos(), "channel send", st)
		return st
	case *ast.LabeledStmt:
		return ff.walkLabeled(s, in)
	case *ast.EmptyStmt:
		return in
	}
	return in
}

// walkFuncLit analyzes a closure body against the given held set. A return
// inside it leaves the closure, not the declared function, so it stays out
// of the exit-balance check.
func (ff *funcFlow) walkFuncLit(fl *ast.FuncLit, in flowState) {
	exits := ff.exits
	ff.walkStmt(fl.Body, in)
	ff.exits = exits
}

func (ff *funcFlow) walkLabeled(s *ast.LabeledStmt, in flowState) flowState {
	label := s.Label.Name
	switch inner := s.Stmt.(type) {
	case *ast.ForStmt:
		return ff.walkFor(inner, in, label)
	case *ast.RangeStmt:
		return ff.walkRange(inner, in, label)
	case *ast.SwitchStmt:
		return ff.walkSwitch(inner, in, label)
	case *ast.TypeSwitchStmt:
		return ff.walkTypeSwitch(inner, in, label)
	default:
		return ff.walkStmt(s.Stmt, in)
	}
}

func (ff *funcFlow) walkAssign(s *ast.AssignStmt, in flowState) flowState {
	st := in
	for _, r := range s.Rhs {
		st = ff.walkExpr(r, st, false)
	}
	for _, l := range s.Lhs {
		if _, ok := l.(*ast.Ident); ok && s.Tok == token.DEFINE {
			continue // a new binding accesses no field
		}
		st = ff.walkExpr(l, st, true)
	}
	return st
}

func (ff *funcFlow) walkIf(s *ast.IfStmt, in flowState) flowState {
	st := in
	if s.Init != nil {
		st = ff.walkStmt(s.Init, st)
	}
	st = ff.walkExpr(s.Cond, st, false)
	thenOut := ff.walkStmt(s.Body, st.clone())
	elseOut := st
	if s.Else != nil {
		elseOut = ff.walkStmt(s.Else, st.clone())
	}
	return meet(thenOut, elseOut)
}

func (ff *funcFlow) walkFor(s *ast.ForStmt, in flowState, label string) flowState {
	st := in
	if s.Init != nil {
		st = ff.walkStmt(s.Init, st)
	}
	return ff.walkLoop(st, label, func(head flowState) flowState {
		h := head
		if s.Cond != nil {
			h = ff.walkExpr(s.Cond, h, false)
		}
		body := ff.walkStmt(s.Body, h)
		if s.Post != nil {
			body = ff.walkStmt(s.Post, body)
		}
		return body
	}, s.Cond == nil)
}

func (ff *funcFlow) walkRange(s *ast.RangeStmt, in flowState, label string) flowState {
	st := ff.walkExpr(s.X, in, false)
	if tv, ok := ff.lc.pass.Info.Types[s.X]; ok {
		if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
			ff.checkBlocking(s.Pos(), "channel range", st)
		}
	}
	return ff.walkLoop(st, label, func(head flowState) flowState {
		return ff.walkStmt(s.Body, head)
	}, false)
}

// walkLoop runs a loop body to a two-iteration fixpoint. The loop-out state
// is the meet of the zero-iteration state and the body's out state (plus any
// break states); an infinite loop (`for {}`) exits only via breaks.
func (ff *funcFlow) walkLoop(entry flowState, label string, body func(flowState) flowState, infinite bool) flowState {
	bt := &branchTargets{label: label, isLoop: true}
	ff.breaks = append(ff.breaks, bt)
	defer func() { ff.breaks = ff.breaks[:len(ff.breaks)-1] }()

	head := entry
	var bodyOut flowState
	for i := 0; i < 3; i++ {
		bt.breakTo = nil
		bt.continues = nil
		bodyOut = body(head.clone())
		next := meet(entry, bodyOut)
		for _, c := range bt.continues {
			next = meet(next, c)
		}
		if equalStates(next, head) {
			break
		}
		head = next
	}
	var out flowState
	if infinite {
		out = flowState{locks: lockSet{}, dead: true}
	} else {
		out = meet(head, bodyOut)
	}
	for _, b := range bt.breakTo {
		out = meet(out, b)
	}
	return out
}

func (ff *funcFlow) walkBranch(s *ast.BranchStmt, in flowState) flowState {
	label := ""
	if s.Label != nil {
		label = s.Label.Name
	}
	switch s.Tok {
	case token.BREAK:
		for i := len(ff.breaks) - 1; i >= 0; i-- {
			bt := ff.breaks[i]
			if label == "" || bt.label == label {
				bt.breakTo = append(bt.breakTo, in)
				break
			}
		}
	case token.CONTINUE:
		for i := len(ff.breaks) - 1; i >= 0; i-- {
			bt := ff.breaks[i]
			if bt.isLoop && (label == "" || bt.label == label) {
				bt.continues = append(bt.continues, in)
				break
			}
		}
	case token.GOTO:
		// No goto in the deterministic packages; treat as opaque exit.
		ff.exits = append(ff.exits, in)
	}
	st := in.clone()
	st.dead = true
	return st
}

func (ff *funcFlow) walkSwitch(s *ast.SwitchStmt, in flowState, label string) flowState {
	st := in
	if s.Init != nil {
		st = ff.walkStmt(s.Init, st)
	}
	if s.Tag != nil {
		st = ff.walkExpr(s.Tag, st, false)
	}
	return ff.walkCases(s.Body, st, label)
}

func (ff *funcFlow) walkTypeSwitch(s *ast.TypeSwitchStmt, in flowState, label string) flowState {
	st := in
	if s.Init != nil {
		st = ff.walkStmt(s.Init, st)
	}
	st = ff.walkStmt(s.Assign, st)
	return ff.walkCases(s.Body, st, label)
}

func (ff *funcFlow) walkCases(body *ast.BlockStmt, in flowState, label string) flowState {
	bt := &branchTargets{label: label}
	ff.breaks = append(ff.breaks, bt)
	defer func() { ff.breaks = ff.breaks[:len(ff.breaks)-1] }()

	out := flowState{locks: lockSet{}, dead: true}
	hasDefault := false
	for _, c := range body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		st := in.clone()
		for _, e := range cc.List {
			st = ff.walkExpr(e, st, false)
		}
		for _, stmt := range cc.Body {
			st = ff.walkStmt(stmt, st)
		}
		out = meet(out, st)
	}
	if !hasDefault {
		out = meet(out, in)
	}
	for _, b := range bt.breakTo {
		out = meet(out, b)
	}
	return out
}

func (ff *funcFlow) walkSelect(s *ast.SelectStmt, in flowState) flowState {
	hasDefault := false
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		ff.checkBlocking(s.Pos(), "select without default", in)
	}
	out := flowState{locks: lockSet{}, dead: true}
	for _, c := range s.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		st := in.clone()
		if cc.Comm != nil {
			st = ff.walkCommStmt(cc.Comm, st)
		}
		for _, stmt := range cc.Body {
			st = ff.walkStmt(stmt, st)
		}
		out = meet(out, st)
	}
	return out
}

// walkCommStmt walks a select communication op without re-triggering the
// blocking check (selects are judged as a whole by their default clause).
func (ff *funcFlow) walkCommStmt(s ast.Stmt, in flowState) flowState {
	switch s := s.(type) {
	case *ast.SendStmt:
		st := ff.walkExpr(s.Chan, in, false)
		return ff.walkExpr(s.Value, st, false)
	case *ast.ExprStmt:
		if u, ok := ast.Unparen(s.X).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
			return ff.walkExpr(u.X, in, false)
		}
	case *ast.AssignStmt:
		st := in
		for _, r := range s.Rhs {
			if u, ok := ast.Unparen(r).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
				st = ff.walkExpr(u.X, st, false)
				continue
			}
			st = ff.walkExpr(r, st, false)
		}
		return st
	}
	return ff.walkStmt(s, in)
}

func (ff *funcFlow) walkDefer(s *ast.DeferStmt, in flowState) flowState {
	st := in
	for _, a := range s.Call.Args {
		st = ff.walkExpr(a, st, false)
	}
	// defer mu.Unlock(): the lock stays held for the rest of the body and is
	// released on every exit, including panic unwinds.
	if sel, ok := s.Call.Fun.(*ast.SelectorExpr); ok {
		if sel.Sel.Name == "Unlock" {
			if tv, ok := ff.lc.pass.Info.Types[sel.X]; ok && isMutexType(tv.Type) {
				key := ff.keyOf(sel.X)
				st = st.clone()
				if h, ok := st.locks[key]; ok {
					h.deferred = true
					st.locks[key] = h
				} else {
					ff.reportOnce(s.Pos(), "deferred unlock of %s, which is not provably held here", types.ExprString(sel.X))
				}
				return st
			}
		}
	}
	// defer func() { ...; mu.Unlock(); ... }(): scan the literal for unlock
	// calls and register each as a deferred release.
	if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
		st = st.clone()
		ast.Inspect(fl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Unlock" {
				return true
			}
			if tv, ok := ff.lc.pass.Info.Types[sel.X]; ok && isMutexType(tv.Type) {
				key := ff.keyOf(sel.X)
				if h, ok := st.locks[key]; ok {
					h.deferred = true
					st.locks[key] = h
				}
			}
			return true
		})
		return st
	}
	return st
}

// --- expression walking ----------------------------------------------------

// walkExpr threads the state through an expression, checking guarded field
// accesses (write reports when the expression is a store target) and
// applying lock operations and annotated call effects.
func (ff *funcFlow) walkExpr(e ast.Expr, in flowState, write bool) flowState {
	if e == nil {
		return in
	}
	switch e := e.(type) {
	case *ast.ParenExpr:
		return ff.walkExpr(e.X, in, write)
	case *ast.Ident, *ast.BasicLit:
		return in
	case *ast.SelectorExpr:
		st := ff.walkExpr(e.X, in, false)
		ff.checkFieldAccess(e, st, write)
		return st
	case *ast.IndexExpr:
		st := ff.walkExpr(e.X, in, write)
		return ff.walkExpr(e.Index, st, false)
	case *ast.IndexListExpr:
		st := ff.walkExpr(e.X, in, write)
		for _, ix := range e.Indices {
			st = ff.walkExpr(ix, st, false)
		}
		return st
	case *ast.SliceExpr:
		st := ff.walkExpr(e.X, in, write)
		st = ff.walkExpr(e.Low, st, false)
		st = ff.walkExpr(e.High, st, false)
		return ff.walkExpr(e.Max, st, false)
	case *ast.StarExpr:
		return ff.walkExpr(e.X, in, write)
	case *ast.UnaryExpr:
		if e.Op == token.ARROW {
			st := ff.walkExpr(e.X, in, false)
			ff.checkBlocking(e.Pos(), "channel receive", st)
			return st
		}
		if e.Op == token.AND {
			// Taking a guarded field's address lets it escape the critical
			// section; require the lock as a write access.
			return ff.walkExpr(e.X, in, true)
		}
		return ff.walkExpr(e.X, in, false)
	case *ast.BinaryExpr:
		st := ff.walkExpr(e.X, in, false)
		return ff.walkExpr(e.Y, st, false)
	case *ast.KeyValueExpr:
		st := ff.walkExpr(e.Key, in, false)
		return ff.walkExpr(e.Value, st, false)
	case *ast.CompositeLit:
		st := in
		for _, el := range e.Elts {
			st = ff.walkExpr(el, st, false)
		}
		return st
	case *ast.TypeAssertExpr:
		return ff.walkExpr(e.X, in, false)
	case *ast.FuncLit:
		// A closure usually runs where it is created (worker bodies are the
		// exception and are reached via go statements, handled above):
		// analyze it against the current held set.
		ff.walkFuncLit(e, in.clone())
		return in
	case *ast.CallExpr:
		return ff.walkCall(e, in)
	}
	return in
}

// walkCall applies a call's lock semantics: sync primitive operations,
// blocking calls, and annotated effects.
func (ff *funcFlow) walkCall(call *ast.CallExpr, in flowState) flowState {
	st := in
	// Walk the function expression: for selector calls the receiver chain is
	// itself a field access (a method call mutates through its pointer
	// receiver).
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if s, isMutexOp := ff.mutexOp(sel, st); isMutexOp {
			for _, a := range call.Args {
				s = ff.walkExpr(a, s, false)
			}
			return s
		}
		recvWrite := false
		if selInfo, ok := ff.lc.pass.Info.Selections[sel]; ok && selInfo.Kind() == types.MethodVal {
			if fn, ok := selInfo.Obj().(*types.Func); ok {
				if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
					_, recvWrite = sig.Recv().Type().(*types.Pointer)
				}
			}
		}
		st = ff.walkExpr(sel.X, st, false)
		if x, ok := ast.Unparen(sel.X).(*ast.SelectorExpr); ok && recvWrite {
			// Pointer-receiver method on a field: the call may mutate it.
			ff.checkFieldAccess(x, st, true)
		}
	} else {
		st = ff.walkExpr(call.Fun, st, false)
	}
	for _, a := range call.Args {
		st = ff.walkExpr(a, st, false)
	}

	fn := calleeFunc(ff.lc.pass.Info, call)
	if fn != nil {
		if isBlockingStdCall(fn) {
			ff.checkBlocking(call.Pos(), fn.FullName(), st)
		}
		if eff := ff.lc.effects[fn]; eff != nil {
			st = ff.applyEffects(call, fn, eff, st)
		}
	}
	return st
}

// mutexOp applies a sync.Mutex Lock or Unlock call to the state. Any other
// locking call on a sync mutex — TryLock, or a sync.RWMutex method — is
// outside the model: it is reported and leaves the state as it was. Returns
// ok=false when sel is not a locking call.
func (ff *funcFlow) mutexOp(sel *ast.SelectorExpr, in flowState) (flowState, bool) {
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock", "TryLock", "TryRLock":
	default:
		return in, false
	}
	tv, ok := ff.lc.pass.Info.Types[sel.X]
	if !ok || !isMutexType(tv.Type) && !isNamedSyncType(tv.Type, "RWMutex") {
		return in, false
	}
	st := ff.walkExpr(sel.X, in, false)
	if !isMutexType(tv.Type) || sel.Sel.Name == "TryLock" {
		ff.reportOnce(sel.Pos(), "%s.%s is outside lockcheck's model (sync.Mutex Lock and Unlock): the lock does not count as held",
			types.ExprString(sel.X), sel.Sel.Name)
		return st, true
	}
	key := ff.keyOf(sel.X)
	st = st.clone()
	if sel.Sel.Name == "Lock" {
		class := ""
		if x, ok := ast.Unparen(sel.X).(*ast.SelectorExpr); ok {
			class = ff.classOf(x)
		}
		ff.acquire(&st, key, class, sel.Pos())
		return st, true
	}
	if _, held := st.locks[key]; !held {
		ff.reportOnce(sel.Pos(), "unlock of %s, which is not provably held here", types.ExprString(sel.X))
	}
	delete(st.locks, key)
	return st, true
}

// acquire adds a lock to the state, reporting double acquisition and lock-
// order inversions against every currently held ranked lock. A double
// acquisition keeps the original held entry (and its deferred-release flag)
// so one bug reports once.
func (ff *funcFlow) acquire(st *flowState, key, class string, pos token.Pos) {
	if _, held := st.locks[key]; held {
		ff.reportOnce(pos, "lock already held: second acquisition of %s on this path", describeLock(key, class))
		return
	}
	ff.checkOrder(st, class, pos)
	st.locks[key] = heldLock{class: class, pos: pos}
}

// checkOrder reports an inversion when a ranked lock is acquired while a
// strictly higher-ranked lock is held.
func (ff *funcFlow) checkOrder(st *flowState, class string, pos token.Pos) {
	if class == "" {
		return
	}
	rank, ok := ff.lc.ranks[class]
	if !ok {
		return
	}
	for _, h := range st.locks {
		if h.class == "" || h.class == class {
			continue
		}
		heldRank, ok := ff.lc.ranks[h.class]
		if !ok {
			continue
		}
		if heldRank > rank {
			ff.reportOnce(pos, "lock-order inversion: acquiring %s (rank %d) while holding %s (rank %d)",
				class, rank, h.class, heldRank)
		}
	}
}

// applyEffects applies a callee's holds/acquires/releases annotations at the
// call site, substituting receiver and parameter names with the caller's
// argument expressions.
func (ff *funcFlow) applyEffects(call *ast.CallExpr, fn *types.Func, eff *funcEffects, in flowState) flowState {
	st := in.clone()
	subst := func(ref lockRef) (string, string) {
		if ref.class != "" {
			return "class:" + ref.class, ref.class
		}
		arg := ff.argFor(call, fn, ref.base)
		if arg == nil {
			return "unresolved:" + ref.spec, ""
		}
		key := ff.keyOf(arg)
		var class string
		if tv, ok := ff.lc.pass.Info.Types[arg]; ok {
			class = classOfChain(tv.Type, ref.path)
		}
		for _, f := range ref.path {
			key += "." + f
		}
		return key, class
	}
	for _, ref := range eff.holds {
		key, class := subst(ref)
		if !ff.held(st, key, class) {
			ff.reportOnce(call.Pos(), "call to %s requires %s held (//detvet:holds %s), but it is not provably held here",
				fn.Name(), describeLock(key, class), ref.spec)
		}
	}
	for _, ref := range eff.releases {
		key, _ := subst(ref)
		delete(st.locks, key)
	}
	for _, ref := range eff.acquires {
		key, class := subst(ref)
		ff.acquire(&st, key, class, call.Pos())
	}
	return st
}

// held reports whether a specific lock (by key, or any instance of its class
// for class-form refs) is held.
func (ff *funcFlow) held(st flowState, key, class string) bool {
	if _, ok := st.locks[key]; ok {
		return true
	}
	return strings.HasPrefix(key, "class:") && class != "" && holdsClass(st, class)
}

// holdsClass reports whether any instance of a lock class is held.
func holdsClass(st flowState, class string) bool {
	for _, h := range st.locks {
		if h.class == class {
			return true
		}
	}
	return false
}

// argFor maps a receiver/parameter name of the callee to the corresponding
// argument expression at this call site.
func (ff *funcFlow) argFor(call *ast.CallExpr, fn *types.Func, name string) ast.Expr {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	if recv := sig.Recv(); recv != nil && recv.Name() == name {
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			return sel.X
		}
		return nil
	}
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if params.At(i).Name() == name {
			if i < len(call.Args) {
				return call.Args[i]
			}
			return nil
		}
	}
	return nil
}

// calleeFunc resolves the called function object, or nil for indirect calls.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
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

// isBlockingStdCall reports the standard-library blocking entry points the
// held-across-blocking pass knows about: sync.Cond.Wait and
// sync.WaitGroup.Wait.
func isBlockingStdCall(fn *types.Func) bool {
	if fn.Name() != "Wait" || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return isNamedSyncType(sig.Recv().Type(), "Cond") || isNamedSyncType(sig.Recv().Type(), "WaitGroup")
}

// checkBlocking reports a blocking operation performed while any annotated
// lock is held.
func (ff *funcFlow) checkBlocking(pos token.Pos, what string, st flowState) {
	for key, h := range st.locks {
		name := describeLock(key, h.class)
		ff.reportOnce(pos, "%s while holding %s: blocking with a runtime mutex held can deadlock the turn protocol; release it first or annotate //detvet:lockcheck", what, name)
		return // one report per site; the held set is in the message's spirit, not its letter
	}
}

// describeLock renders a lock key for diagnostics, preferring the class.
func describeLock(key, class string) string {
	if class != "" {
		return class
	}
	if i := strings.IndexByte(key, '@'); i >= 0 {
		if j := strings.IndexByte(key[i:], '.'); j >= 0 {
			return key[:i] + key[i+j:]
		}
		return key[:i]
	}
	return key
}

// checkFieldAccess verifies one selector against its guardedby annotation.
func (ff *funcFlow) checkFieldAccess(sel *ast.SelectorExpr, st flowState, write bool) {
	selInfo, ok := ff.lc.pass.Info.Selections[sel]
	if !ok || selInfo.Kind() != types.FieldVal {
		return
	}
	field, ok := selInfo.Obj().(*types.Var)
	if !ok {
		return
	}
	guard := ff.lc.guards[field]
	if guard == nil {
		return
	}
	if root := ff.rootObject(sel.X); root != nil && ff.fresh[root] {
		return // freshly constructed, still thread-local
	}
	if guard.sibling != "" {
		if _, ok := st.locks[ff.keyOf(sel.X)+"."+guard.sibling]; ok {
			return
		}
	} else if holdsClass(st, guard.class) {
		return
	}
	mode := "read"
	if write {
		mode = "write"
	}
	ff.reportOnce(sel.Sel.Pos(),
		"%s of %s.%s without holding %s (//detvet:guardedby): add the lock, or annotate //detvet:lockcheck with the stronger ordering that protects this access",
		mode, types.ExprString(sel.X), sel.Sel.Name, guard.spec)
}

// checkExits verifies lock balance at every function exit: locks still held
// must be covered by a holds or acquires annotation (or a registered defer),
// and every annotated acquires lock must actually be held.
func (ff *funcFlow) checkExits(fd *ast.FuncDecl, eff *funcEffects, entry flowState) {
	expected := map[string]bool{}
	if eff != nil {
		for _, refs := range [][]lockRef{eff.holds, eff.acquires} {
			for _, ref := range refs {
				key, _ := ff.refKey(fd, ref)
				expected[key] = true
			}
		}
		for _, ref := range eff.releases {
			key, _ := ff.refKey(fd, ref)
			delete(expected, key)
		}
	}
	for _, exit := range ff.exits {
		for key, h := range exit.locks {
			if h.deferred || expected[key] {
				continue
			}
			ff.reportOnce(h.pos,
				"%s may still be held when %s returns: unlock it, defer the unlock, or annotate //detvet:acquires",
				describeLock(key, h.class), fd.Name.Name)
		}
		for key := range expected {
			if _, ok := exit.locks[key]; !ok {
				ff.reportOnce(fd.Name.Pos(),
					"%s is annotated to hold %s at return, but a path releases it",
					fd.Name.Name, describeLock(key, ""))
			}
		}
	}
}
