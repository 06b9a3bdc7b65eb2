package main

import (
	"go/ast"
	"go/token"
	"go/types"
)

// pincheck is the paired-resource analyzer (DESIGN.md §17). The runtime has
// three acquire/release pairs whose imbalance is invisible to the race
// detector but fatal to reclamation:
//
//   - slicestore's epoch pins: a value of type Pin returned by Pin() or a
//     pin-returning helper must reach Release() on every path, or retired
//     epochs accumulate on the limbo list forever;
//   - alloc.ChunkPool chunks: a chunk obtained from Get must be returned
//     with Put, or the arena's freelist drains and every subsequent arena
//     falls through to fresh allocation;
//   - mem's pooled storage: a snapshot buffer from GetPageBuf or
//     Space.Snapshot must go back through PutPageBuf, and a patch from
//     NewPagePatch or a plan from BuildPlan/BuildPlanFunc must reach
//     Release() exactly once — they are recycled whole, so one released on
//     two paths is handed to two owners.
//
// The analyzer is lostcancel-shaped: it tracks locals bound to an acquire
// call through a structural may-leak dataflow (join = union: a resource
// leaks if any path fails to release it) and reports at the acquire site
// when some exit — an early return, the function's end, or an explicit
// panic unwind — is reached with the resource live and no deferred release
// registered. Ownership transfer ends tracking: returning the resource,
// storing it into a field, composite literal, map, channel, or another
// variable, or passing it to a callee all hand the release obligation to
// someone the analyzer cannot see, by design (DESIGN.md §17 documents this
// as the soundness boundary). Discarding an acquire result outright and
// overwriting a live resource are reported immediately.
//
// Only explicit `panic(...)` statements count as unwind exits: a panic from
// a callee is not modeled, so a function that can only leak through a
// callee's panic needs `defer` anyway if it must survive aborts — the
// deterministic abort path (panic(errAborted)) is an explicit panic in
// every function it unwinds through, so abort leaks are visible.
//
// False positives (e.g. a release delegated to a goroutine the analyzer
// treats as an escape... which is already a transfer; realistically a
// conditional protocol the lattice cannot see) are silenced with
// //detvet:pincheck <why>.
var pincheck = &Analyzer{
	Name: "pincheck",
	Restrict: []string{
		"rfdet/internal/core",
		"rfdet/internal/slicestore",
		"rfdet/internal/mem",
		"rfdet/internal/alloc",
	},
	Run: runPincheck,
}

// resKind classifies the three tracked pairs.
type resKind int

const (
	resPin resKind = iota
	resChunk
	resPageBuf
)

func (k resKind) String() string {
	switch k {
	case resPin:
		return "epoch pin"
	case resChunk:
		return "pool chunk"
	default:
		return "pooled page storage"
	}
}

// resource is one live tracked value.
type resource struct {
	kind     resKind
	pos      token.Pos // acquire site
	deferred bool      // a deferred release covers every exit
}

// resState is the may-live set at one program point.
type resState struct {
	live map[types.Object]resource
	dead bool
}

func newResState() resState { return resState{live: map[types.Object]resource{}} }

func (s resState) clone() resState {
	c := resState{live: make(map[types.Object]resource, len(s.live)), dead: s.dead}
	for k, v := range s.live {
		c.live[k] = v
	}
	return c
}

// meetRes joins two states with union: a resource that may be live on either
// path may leak downstream. A deferred release survives only if registered
// on every path where the resource is live.
func meetRes(a, b resState) resState {
	if a.dead {
		return b.clone()
	}
	if b.dead {
		return a.clone()
	}
	out := a.clone()
	for obj, rb := range b.live {
		if ra, ok := out.live[obj]; ok {
			ra.deferred = ra.deferred && rb.deferred
			out.live[obj] = ra
			continue
		}
		out.live[obj] = rb
	}
	return out
}

func equalResStates(a, b resState) bool {
	if a.dead != b.dead || len(a.live) != len(b.live) {
		return false
	}
	for obj, ra := range a.live {
		rb, ok := b.live[obj]
		if !ok || ra.deferred != rb.deferred {
			return false
		}
	}
	return true
}

func runPincheck(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			pf := &pinFlow{pass: pass, leaked: map[token.Pos]string{}, reported: map[token.Pos]bool{}}
			out := pf.stmt(fd.Body, newResState())
			if !out.dead {
				pf.exit(out, "the end of "+fd.Name.Name)
			}
			pf.flush()
		}
	}
}

// pinFlow analyzes one function body.
type pinFlow struct {
	pass     *Pass
	breaks   []*resBranchTargets
	leaked   map[token.Pos]string // acquire pos → leak description
	reported map[token.Pos]bool
}

type resBranchTargets struct {
	label     string
	isLoop    bool
	breakTo   []resState
	continues []resState
}

// exit records every still-live, non-deferred resource at one exit point as
// leaked.
func (pf *pinFlow) exit(st resState, where string) {
	for _, r := range st.live {
		if r.deferred {
			continue
		}
		if _, ok := pf.leaked[r.pos]; !ok {
			pf.leaked[r.pos] = where
		}
	}
}

// flush reports the collected leaks, one per acquire site.
func (pf *pinFlow) flush() {
	for pos, where := range pf.leaked {
		if pf.reported[pos] {
			continue
		}
		pf.reported[pos] = true
		pf.pass.Reportf(pos,
			"resource acquired here may still be live at %s: release it on every path, defer the release, or transfer ownership",
			where)
	}
}

// report emits an immediate (non-exit) diagnostic once per position.
func (pf *pinFlow) report(pos token.Pos, format string, args ...any) {
	if pf.reported[pos] {
		return
	}
	pf.reported[pos] = true
	pf.pass.Reportf(pos, format, args...)
}

// --- acquire/release/escape recognition ------------------------------------

// acquireKind reports whether call is a tracked acquire.
func (pf *pinFlow) acquireKind(call *ast.CallExpr) (resKind, bool) {
	// Acquires matched by function name.
	if fn := calleeFunc(pf.pass.Info, call); fn != nil {
		switch name := fn.Name(); {
		case name == "GetPageBuf", name == "Snapshot" && recvTypeNamed(fn, "Space"),
			name == "NewPagePatch", name == "BuildPlan", name == "BuildPlanFunc":
			return resPageBuf, true
		case name == "Get" && recvTypeNamed(fn, "ChunkPool"):
			return resChunk, true
		}
	}
	// Anything returning a value of a type named Pin is a pin acquire.
	if tv, ok := pf.pass.Info.Types[call]; ok && typeNamed(tv.Type, "Pin") {
		return resPin, true
	}
	return 0, false
}

// releaseTarget reports whether call releases a tracked local, returning the
// released object.
func (pf *pinFlow) releaseTarget(call *ast.CallExpr) (types.Object, bool) {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		// pin.Release(), patch.Release(), plan.Release()
		if sel.Sel.Name == "Release" {
			if obj := pf.identObj(sel.X); obj != nil {
				return obj, true
			}
		}
		// pool.Put(c)
		if sel.Sel.Name == "Put" && len(call.Args) >= 1 {
			if fn := calleeFunc(pf.pass.Info, call); fn != nil && recvTypeNamed(fn, "ChunkPool") {
				if obj := pf.identObj(call.Args[0]); obj != nil {
					return obj, true
				}
			}
		}
	}
	// PutPageBuf(b)
	if fn := calleeFunc(pf.pass.Info, call); fn != nil && fn.Name() == "PutPageBuf" && len(call.Args) >= 1 {
		if obj := pf.identObj(call.Args[0]); obj != nil {
			return obj, true
		}
	}
	return nil, false
}

func (pf *pinFlow) identObj(e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := pf.pass.Info.Uses[id]; obj != nil {
		return obj
	}
	return pf.pass.Info.Defs[id]
}

// typeNamed reports whether t (through pointers) is a named type with the
// given name. Matching is by name, not package, so the analyzer's fixtures
// can declare local analogs of the runtime's resource types.
func typeNamed(t types.Type, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == name
}

func recvTypeNamed(fn *types.Func, name string) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return typeNamed(sig.Recv().Type(), name)
}

// escapeUses removes every tracked object that appears as a value inside e:
// its release obligation has been transferred. Field reads through the
// object (p.id) do not escape it.
func (pf *pinFlow) escapeUses(e ast.Expr, st *resState) {
	if e == nil {
		return
	}
	var visit func(e ast.Expr, valuePos bool)
	visit = func(e ast.Expr, valuePos bool) {
		switch e := e.(type) {
		case nil:
		case *ast.ParenExpr:
			visit(e.X, valuePos)
		case *ast.Ident:
			if !valuePos {
				return
			}
			obj := pf.pass.Info.Uses[e]
			if obj == nil {
				return
			}
			if _, ok := st.live[obj]; ok {
				delete(st.live, obj)
			}
		case *ast.SelectorExpr:
			// A field read does not transfer the resource itself.
			visit(e.X, false)
		case *ast.UnaryExpr:
			visit(e.X, true)
		case *ast.StarExpr:
			visit(e.X, true)
		case *ast.IndexExpr:
			visit(e.X, valuePos)
			visit(e.Index, true)
		case *ast.SliceExpr:
			visit(e.X, valuePos)
			visit(e.Low, true)
			visit(e.High, true)
			visit(e.Max, true)
		case *ast.BinaryExpr:
			visit(e.X, true)
			visit(e.Y, true)
		case *ast.KeyValueExpr:
			visit(e.Value, true)
		case *ast.CompositeLit:
			for _, el := range e.Elts {
				visit(el, true)
			}
		case *ast.CallExpr:
			// Handled by the caller for release recognition; reaching here
			// means a non-release call: every argument escapes.
			visit(e.Fun, false)
			for _, a := range e.Args {
				visit(a, true)
			}
		case *ast.TypeAssertExpr:
			visit(e.X, true)
		case *ast.FuncLit:
			// A closure capturing the resource takes over its lifetime.
			ast.Inspect(e.Body, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if obj := pf.pass.Info.Uses[id]; obj != nil {
						delete(st.live, obj)
					}
				}
				return true
			})
		}
	}
	visit(e, true)
}

// --- statement walking -----------------------------------------------------

func (pf *pinFlow) stmt(s ast.Stmt, in resState) resState {
	if s == nil || in.dead {
		return in
	}
	switch s := s.(type) {
	case *ast.BlockStmt:
		st := in
		for _, stmt := range s.List {
			st = pf.stmt(stmt, st)
		}
		return st
	case *ast.ExprStmt:
		return pf.exprStmt(s, in)
	case *ast.AssignStmt:
		return pf.assign(s, in)
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok {
			return in
		}
		st := in
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok || len(vs.Values) == 0 {
				continue
			}
			st = st.clone()
			for i, name := range vs.Names {
				if i < len(vs.Values) {
					st = pf.bind(name, vs.Values[i], st)
				}
			}
		}
		return st
	case *ast.IfStmt:
		st := in
		if s.Init != nil {
			st = pf.stmt(s.Init, st)
		}
		st = st.clone()
		pf.escapeCond(s.Cond, &st)
		thenOut := pf.stmt(s.Body, st.clone())
		elseOut := st
		if s.Else != nil {
			elseOut = pf.stmt(s.Else, st.clone())
		}
		return meetRes(thenOut, elseOut)
	case *ast.ForStmt:
		st := in
		if s.Init != nil {
			st = pf.stmt(s.Init, st)
		}
		return pf.loop(st, "", func(head resState) resState {
			h := head.clone()
			if s.Cond != nil {
				pf.escapeCond(s.Cond, &h)
			}
			body := pf.stmt(s.Body, h)
			if s.Post != nil {
				body = pf.stmt(s.Post, body)
			}
			return body
		}, s.Cond == nil)
	case *ast.RangeStmt:
		st := in.clone()
		pf.escapeCond(s.X, &st)
		return pf.loop(st, "", func(head resState) resState {
			return pf.stmt(s.Body, head.clone())
		}, false)
	case *ast.SwitchStmt:
		st := in
		if s.Init != nil {
			st = pf.stmt(s.Init, st)
		}
		if s.Tag != nil {
			st = st.clone()
			pf.escapeCond(s.Tag, &st)
		}
		return pf.cases(s.Body, st)
	case *ast.TypeSwitchStmt:
		st := in
		if s.Init != nil {
			st = pf.stmt(s.Init, st)
		}
		st = pf.stmt(s.Assign, st)
		return pf.cases(s.Body, st)
	case *ast.SelectStmt:
		out := resState{live: map[types.Object]resource{}, dead: true}
		for _, c := range s.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok {
				continue
			}
			st := in.clone()
			if cc.Comm != nil {
				st = pf.stmt(cc.Comm, st)
			}
			for _, stmt := range cc.Body {
				st = pf.stmt(stmt, st)
			}
			out = meetRes(out, st)
		}
		return out
	case *ast.ReturnStmt:
		st := in.clone()
		for _, r := range s.Results {
			pf.escapeUsesViaCalls(r, &st)
		}
		pf.exit(st, "this return")
		st.dead = true
		return st
	case *ast.BranchStmt:
		label := ""
		if s.Label != nil {
			label = s.Label.Name
		}
		switch s.Tok {
		case token.BREAK:
			for i := len(pf.breaks) - 1; i >= 0; i-- {
				bt := pf.breaks[i]
				if label == "" || bt.label == label {
					bt.breakTo = append(bt.breakTo, in)
					break
				}
			}
		case token.CONTINUE:
			for i := len(pf.breaks) - 1; i >= 0; i-- {
				bt := pf.breaks[i]
				if bt.isLoop && (label == "" || bt.label == label) {
					bt.continues = append(bt.continues, in)
					break
				}
			}
		}
		st := in.clone()
		st.dead = true
		return st
	case *ast.DeferStmt:
		return pf.deferStmt(s, in)
	case *ast.GoStmt:
		st := in.clone()
		pf.escapeCond(s.Call.Fun, &st)
		for _, a := range s.Call.Args {
			pf.escapeUses(a, &st)
		}
		return st
	case *ast.SendStmt:
		st := in.clone()
		pf.escapeUses(s.Value, &st)
		return st
	case *ast.LabeledStmt:
		switch inner := s.Stmt.(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt:
			_ = inner
			return pf.labeledLoop(s, in)
		default:
			return pf.stmt(s.Stmt, in)
		}
	case *ast.IncDecStmt:
		return in
	}
	return in
}

func (pf *pinFlow) labeledLoop(s *ast.LabeledStmt, in resState) resState {
	label := s.Label.Name
	switch inner := s.Stmt.(type) {
	case *ast.ForStmt:
		st := in
		if inner.Init != nil {
			st = pf.stmt(inner.Init, st)
		}
		return pf.loop(st, label, func(head resState) resState {
			h := head.clone()
			if inner.Cond != nil {
				pf.escapeCond(inner.Cond, &h)
			}
			body := pf.stmt(inner.Body, h)
			if inner.Post != nil {
				body = pf.stmt(inner.Post, body)
			}
			return body
		}, inner.Cond == nil)
	case *ast.RangeStmt:
		st := in.clone()
		pf.escapeCond(inner.X, &st)
		return pf.loop(st, label, func(head resState) resState {
			return pf.stmt(inner.Body, head.clone())
		}, false)
	default:
		return pf.stmt(s.Stmt, in)
	}
}

func (pf *pinFlow) loop(entry resState, label string, body func(resState) resState, infinite bool) resState {
	bt := &resBranchTargets{label: label, isLoop: true}
	pf.breaks = append(pf.breaks, bt)
	defer func() { pf.breaks = pf.breaks[:len(pf.breaks)-1] }()

	head := entry
	var bodyOut resState
	for i := 0; i < 3; i++ {
		bt.breakTo = nil
		bt.continues = nil
		bodyOut = body(head)
		next := meetRes(entry, bodyOut)
		for _, c := range bt.continues {
			next = meetRes(next, c)
		}
		if equalResStates(next, head) {
			break
		}
		head = next
	}
	var out resState
	if infinite {
		out = resState{live: map[types.Object]resource{}, dead: true}
	} else {
		out = meetRes(head, bodyOut)
	}
	for _, b := range bt.breakTo {
		out = meetRes(out, b)
	}
	return out
}

func (pf *pinFlow) cases(body *ast.BlockStmt, in resState) resState {
	bt := &resBranchTargets{}
	pf.breaks = append(pf.breaks, bt)
	defer func() { pf.breaks = pf.breaks[:len(pf.breaks)-1] }()

	out := resState{live: map[types.Object]resource{}, dead: true}
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
		for _, stmt := range cc.Body {
			st = pf.stmt(stmt, st)
		}
		out = meetRes(out, st)
	}
	if !hasDefault {
		out = meetRes(out, in)
	}
	for _, b := range bt.breakTo {
		out = meetRes(out, b)
	}
	return out
}

// exprStmt handles a statement-level expression: an acquire whose result is
// discarded leaks immediately; an explicit panic is an unwind exit; a
// release retires its target; other calls escape their arguments.
func (pf *pinFlow) exprStmt(s *ast.ExprStmt, in resState) resState {
	call, ok := ast.Unparen(s.X).(*ast.CallExpr)
	if !ok {
		return in
	}
	if isBuiltin(pf.pass.Info, call, "panic") {
		st := in.clone()
		for _, a := range call.Args {
			pf.escapeUses(a, &st)
		}
		pf.exit(st, "this panic")
		st.dead = true
		return st
	}
	if kind, ok := pf.acquireKind(call); ok {
		pf.report(call.Pos(), "result of this call is discarded: the %s it returns is never released", kind)
		// Arguments still escape.
		st := in.clone()
		for _, a := range call.Args {
			pf.escapeUses(a, &st)
		}
		return st
	}
	if obj, ok := pf.releaseTarget(call); ok {
		st := in.clone()
		delete(st.live, obj)
		return st
	}
	st := in.clone()
	pf.escapeCond(s.X, &st)
	return st
}

// assign binds acquire results and treats other uses as escapes. Overwriting
// a live resource is reported immediately.
func (pf *pinFlow) assign(s *ast.AssignStmt, in resState) resState {
	st := in.clone()
	if len(s.Lhs) >= 1 && len(s.Rhs) == 1 {
		if call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr); ok {
			if kind, ok := pf.acquireKind(call); ok {
				for _, a := range call.Args {
					pf.escapeUses(a, &st)
				}
				id, isIdent := ast.Unparen(s.Lhs[0]).(*ast.Ident)
				if !isIdent || id.Name == "_" {
					pf.report(call.Pos(), "result of this call is bound to _ or a non-local: the %s it returns is never released", kind)
					return st
				}
				obj := pf.identObj(s.Lhs[0])
				if obj == nil {
					return st
				}
				if prev, live := st.live[obj]; live && !prev.deferred {
					pf.report(call.Pos(), "reassignment of %s while the previous %s from line %d is unreleased",
						id.Name, prev.kind, pf.pass.Fset.Position(prev.pos).Line)
				}
				st.live[obj] = resource{kind: kind, pos: call.Pos()}
				return st
			}
		}
	}
	for _, r := range s.Rhs {
		pf.escapeCond(r, &st)
	}
	// Storing a tracked value somewhere (field, map, other var) transfers it;
	// escapeUses above already handled RHS appearances. An LHS that is a
	// tracked local being overwritten by a non-acquire value drops tracking
	// only if the old value was moved — which escapeUses cannot know — so
	// keep it conservative: overwriting with a non-acquire forgets nothing.
	return st
}

// bind handles `var x = expr` declarations.
func (pf *pinFlow) bind(name *ast.Ident, value ast.Expr, st resState) resState {
	if call, ok := ast.Unparen(value).(*ast.CallExpr); ok {
		if kind, ok := pf.acquireKind(call); ok {
			for _, a := range call.Args {
				pf.escapeUses(a, &st)
			}
			if name.Name == "_" {
				pf.report(call.Pos(), "result of this call is bound to _: the %s it returns is never released", kind)
				return st
			}
			if obj := pf.pass.Info.Defs[name]; obj != nil {
				st.live[obj] = resource{kind: kind, pos: call.Pos()}
			}
			return st
		}
	}
	pf.escapeCond(value, &st)
	return st
}

// deferStmt registers deferred releases: `defer p.Release()`,
// `defer pool.Put(c)`, `defer PutPageBuf(b)`, or a deferred closure whose
// body contains such calls.
func (pf *pinFlow) deferStmt(s *ast.DeferStmt, in resState) resState {
	st := in.clone()
	if obj, ok := pf.releaseTarget(s.Call); ok {
		if r, live := st.live[obj]; live {
			r.deferred = true
			st.live[obj] = r
		}
		return st
	}
	if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(fl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if obj, ok := pf.releaseTarget(call); ok {
				if r, live := st.live[obj]; live {
					r.deferred = true
					st.live[obj] = r
				}
			}
			return true
		})
		return st
	}
	// Any other deferred call escapes its arguments.
	for _, a := range s.Call.Args {
		pf.escapeUses(a, &st)
	}
	return st
}

// escapeCond walks an arbitrary expression for escapes, recognizing release
// calls nested as expressions (rare, but `ok := pool.Put(c)` style code
// should still retire c).
func (pf *pinFlow) escapeCond(e ast.Expr, st *resState) {
	if e == nil {
		return
	}
	if call, ok := ast.Unparen(e).(*ast.CallExpr); ok {
		if obj, ok := pf.releaseTarget(call); ok {
			delete(st.live, obj)
			return
		}
	}
	pf.escapeUses(e, st)
}

// escapeUsesViaCalls is escapeCond for return statements: `return p` escapes
// p, `return p.Release()` would release first (not a real pattern, but keep
// the recognizer uniform).
func (pf *pinFlow) escapeUsesViaCalls(e ast.Expr, st *resState) {
	pf.escapeCond(e, st)
}
