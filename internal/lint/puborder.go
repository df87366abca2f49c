package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// NewPubOrder builds the puborder analyzer: the happens-before companion to
// atomicfield. atomicfield catches a *single location* accessed both
// atomically and plainly; puborder reasons about the *objects around* an
// atomic publication — the exact shape of FishStore's latch-free structures
// (pagecache fills, chain splices, §4.2), where a payload is built with
// plain writes, published with one atomic store/CAS, and from that instant
// shared with readers that acquire it through the matching atomic load.
//
// Three rules:
//
//  1. write-after-publish: once a locally built object has been handed to
//     atomic.Store*/Swap*/CompareAndSwap* (or an atomic.Pointer/Value
//     method), any later plain field write through that object races with
//     every reader that already acquired it. Initialization must complete
//     before publication — the store is the release fence.
//
//  2. write-after-load: an object obtained *from* an atomic load is, by
//     construction, shared with concurrent readers (and the publisher).
//     Plain field writes through it race; mutate a private copy and
//     re-publish (copy-on-write), or take the structure's lock.
//
//  3. mutex-held blocking calls: mirroring epochguard's no-blocking rule,
//     device I/O, sleeps, waits, and channel operations must not run while a
//     sync.Mutex/RWMutex is held — every other locker (including flush and
//     checkpoint paths) stalls behind the holder for the full device
//     latency. Locks released by defer are treated as held to the end of
//     the function.
//
// Like epochguard, the analysis is a per-function abstract interpretation
// with may-semantics at joins: a publish or Lock on one branch is assumed to
// have happened after the join. Function literals are analyzed as
// independent functions (their bodies do not execute where they appear), so
// captured state is not tracked into them — a documented limitation shared
// with epochguard.
func NewPubOrder() *Analyzer {
	a := &Analyzer{
		Name: "puborder",
		Doc:  "atomic publication ordering: no plain writes to published objects, no blocking calls under mutexes",
	}
	a.Run = func(pass *Pass) {
		if pass.Pkg.PkgPath == epochPkg {
			return
		}
		for _, file := range pass.Pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				analyzePubOrder(pass, fd.Body)
			}
		}
	}
	return a
}

// pubEnv tracks publication and lock state through one function body.
type pubEnv struct {
	pass *Pass
	info *types.Info
	// published maps objects (locals whose pointee was handed to an atomic
	// store) to the display name of the publishing call, for messages.
	published map[types.Object]string
	// loaded maps objects assigned from an atomic load to the loading call.
	loaded map[types.Object]string
	// held maps canonical mutex expressions (keyOf-style) to their rendering.
	held map[string]string
	lits []*ast.FuncLit
}

func analyzePubOrder(pass *Pass, body *ast.BlockStmt) {
	env := &pubEnv{
		pass:      pass,
		info:      pass.Pkg.Info,
		published: make(map[types.Object]string),
		loaded:    make(map[types.Object]string),
		held:      make(map[string]string),
	}
	env.evalStmt(body)
	for _, lit := range env.lits {
		analyzePubOrder(pass, lit.Body)
	}
}

// snapshot/restore/merge implement branch-local copies with may-semantics:
// published/loaded/held survive a join if set on any incoming path.
type pubState struct {
	published map[types.Object]string
	loaded    map[types.Object]string
	held      map[string]string
}

func (env *pubEnv) snapshot() pubState {
	s := pubState{
		published: make(map[types.Object]string, len(env.published)),
		loaded:    make(map[types.Object]string, len(env.loaded)),
		held:      make(map[string]string, len(env.held)),
	}
	for k, v := range env.published {
		s.published[k] = v
	}
	for k, v := range env.loaded {
		s.loaded[k] = v
	}
	for k, v := range env.held {
		s.held[k] = v
	}
	return s
}

func (env *pubEnv) restore(s pubState) {
	env.published = s.published
	env.loaded = s.loaded
	env.held = s.held
}

func (env *pubEnv) merge(s pubState) {
	for k, v := range s.published {
		if _, ok := env.published[k]; !ok {
			env.published[k] = v
		}
	}
	for k, v := range s.loaded {
		if _, ok := env.loaded[k]; !ok {
			env.loaded[k] = v
		}
	}
	for k, v := range s.held {
		if _, ok := env.held[k]; !ok {
			env.held[k] = v
		}
	}
}

// evalStmt interprets one statement; returns true when the path terminates.
func (env *pubEnv) evalStmt(stmt ast.Stmt) bool {
	switch s := stmt.(type) {
	case nil:
		return false
	case *ast.BlockStmt:
		for _, st := range s.List {
			if env.evalStmt(st) {
				return true
			}
		}
		return false
	case *ast.ExprStmt:
		env.scanExpr(s.X)
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok && isPanic(env.info, call) {
			return true
		}
		return false
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			env.scanExpr(rhs)
		}
		// Field writes through published/loaded objects are the rule-1/2
		// violations; then track loads and drop reassigned locals.
		for _, lhs := range s.Lhs {
			env.checkFieldWrite(lhs)
		}
		if len(s.Lhs) == len(s.Rhs) {
			for i, lhs := range s.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				obj := env.info.Defs[id]
				if obj == nil {
					obj = env.info.Uses[id]
				}
				if obj == nil {
					continue
				}
				// A reassignment gives the local a fresh, private value.
				delete(env.published, obj)
				delete(env.loaded, obj)
				if name, ok := atomicLoadCall(env.info, s.Rhs[i]); ok {
					if _, isPtr := obj.Type().Underlying().(*types.Pointer); isPtr {
						env.loaded[obj] = name
					}
				}
			}
		}
		return false
	case *ast.IncDecStmt:
		env.checkFieldWrite(s.X)
		env.scanExpr(s.X)
		return false
	case *ast.SendStmt:
		env.scanExpr(s.Chan)
		env.scanExpr(s.Value)
		env.reportIfLocked(s.Arrow, "channel send")
		return false
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						env.scanExpr(v)
					}
				}
			}
		}
		return false
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			env.scanExpr(r)
		}
		return true
	case *ast.DeferStmt:
		// defer mu.Unlock() does NOT release for ordering purposes: the body
		// after the defer still runs with the lock held. Other deferred
		// calls are scanned for publishes only.
		for _, arg := range s.Call.Args {
			env.scanExpr(arg)
		}
		if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
			env.lits = append(env.lits, lit)
		}
		return false
	case *ast.GoStmt:
		if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
			env.lits = append(env.lits, lit)
		}
		for _, arg := range s.Call.Args {
			env.scanExpr(arg)
		}
		return false
	case *ast.IfStmt:
		env.evalStmt(s.Init)
		env.scanExpr(s.Cond)
		entry := env.snapshot()
		thenTerm := env.evalStmt(s.Body)
		thenState := env.snapshot()
		env.restore(entry)
		elseTerm := false
		if s.Else != nil {
			elseTerm = env.evalStmt(s.Else)
		}
		if thenTerm && elseTerm {
			return true
		}
		if elseTerm {
			env.restore(thenState)
			return false
		}
		if !thenTerm {
			env.merge(thenState)
		}
		return false
	case *ast.ForStmt:
		env.evalStmt(s.Init)
		env.scanExpr(s.Cond)
		entry := env.snapshot()
		env.evalStmt(s.Body)
		env.evalStmt(s.Post)
		env.merge(entry)
		return false
	case *ast.RangeStmt:
		env.scanExpr(s.X)
		entry := env.snapshot()
		env.evalStmt(s.Body)
		env.merge(entry)
		return false
	case *ast.SwitchStmt:
		env.evalStmt(s.Init)
		env.scanExpr(s.Tag)
		return env.evalCases(caseBodies(s.Body), hasDefaultClause(s.Body))
	case *ast.TypeSwitchStmt:
		env.evalStmt(s.Init)
		return env.evalCases(caseBodies(s.Body), hasDefaultClause(s.Body))
	case *ast.SelectStmt:
		if !hasDefaultClause(s.Body) {
			env.reportIfLocked(s.Select, "blocking select")
		}
		return env.evalCases(caseBodies(s.Body), true)
	case *ast.LabeledStmt:
		return env.evalStmt(s.Stmt)
	case *ast.BranchStmt:
		return true
	default:
		return false
	}
}

// evalCases mirrors epochguard's switch/select handling.
func (env *pubEnv) evalCases(bodies [][]ast.Stmt, hasDefault bool) bool {
	entry := env.snapshot()
	states := make([]pubState, 0, len(bodies))
	allTerm := len(bodies) > 0
	for _, body := range bodies {
		env.restore(entry)
		term := false
		for _, st := range body {
			if env.evalStmt(st) {
				term = true
				break
			}
		}
		if !term {
			states = append(states, env.snapshot())
			allTerm = false
		}
	}
	env.restore(entry)
	for _, st := range states {
		env.merge(st)
	}
	return allTerm && hasDefault
}

// checkFieldWrite reports rule-1/2 violations for an assignment target.
func (env *pubEnv) checkFieldWrite(lhs ast.Expr) {
	sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
	if !ok {
		// Element writes through a published slice/map local (p[i] = x) are
		// the same bug shape.
		ix, ok := ast.Unparen(lhs).(*ast.IndexExpr)
		if !ok {
			return
		}
		env.checkWriteBase(ix.X, "element")
		return
	}
	if fieldOf(env.info, sel) == nil {
		return
	}
	env.checkWriteBase(sel.X, "field "+sel.Sel.Name)
	// Nested selector chains: x.a.b = v writes through x.a; walk down.
	env.checkFieldWrite(sel.X)
}

func (env *pubEnv) checkWriteBase(base ast.Expr, what string) {
	id, ok := ast.Unparen(base).(*ast.Ident)
	if !ok {
		return
	}
	obj := env.info.Uses[id]
	if obj == nil {
		return
	}
	if pub, ok := env.published[obj]; ok {
		env.pass.Reportf(id.Pos(), "plain write to %s of %s after it was published via %s: readers that already acquired the pointer can observe the pre-write value (finish initializing before the atomic store — it is the release fence)", what, id.Name, pub)
		return
	}
	if load, ok := env.loaded[obj]; ok {
		env.pass.Reportf(id.Pos(), "plain write to %s of %s, which was acquired from %s: the object is shared with concurrent readers and the publisher; build a private copy and re-publish it (copy-on-write), or protect the structure with its lock", what, id.Name, load)
	}
}

// scanExpr walks an expression in evaluation position: it records atomic
// publishes, tracks lock state, reports blocking operations under locks, and
// queues nested function literals.
func (env *pubEnv) scanExpr(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			env.lits = append(env.lits, n)
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				env.reportIfLocked(n.OpPos, "channel receive")
			}
		case *ast.CallExpr:
			env.handleCall(n)
		}
		return true
	})
}

func (env *pubEnv) handleCall(call *ast.CallExpr) {
	name := callDisplayName(env.info, call)
	if name == "" {
		return
	}
	// Lock tracking.
	switch name {
	case "(*sync.Mutex).Lock", "(*sync.RWMutex).Lock", "(*sync.RWMutex).RLock":
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if key := mutexKey(env.info, sel.X); key != "" {
				env.held[key] = exprString(sel.X)
			}
		}
		return
	case "(*sync.Mutex).Unlock", "(*sync.RWMutex).Unlock", "(*sync.RWMutex).RUnlock":
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if key := mutexKey(env.info, sel.X); key != "" {
				delete(env.held, key)
			}
		}
		return
	}
	// Blocking calls under a held mutex (rule 3). (*sync.Cond).Wait is
	// exempt here — it atomically releases the cond's mutex while waiting,
	// so "every other locker stalls" does not apply; epochguard still
	// reports it under an epoch guard, which Wait does not release.
	if why, ok := blockingCalls[name]; ok && name != "(*sync.Cond).Wait" {
		for _, m := range env.held {
			env.pass.Reportf(call.Pos(), "call to %s while mutex %s is held: it %s, and every other locker (including flush and checkpoint paths) stalls behind it for the full latency (move the call outside the critical section)", name, m, why)
			break
		}
	}
	// Publish tracking (rules 1/2): which argument is the published value?
	if val := publishedValue(env.info, call, name); val != nil {
		if obj := pointerOperand(env.info, val); obj != nil {
			env.published[obj] = name
		}
	}
}

// mutexKey canonicalizes the receiver expression of a Lock/Unlock, reusing
// the selector-chain canonicalization guards use.
func mutexKey(info *types.Info, e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := info.Uses[e]; obj != nil {
			return objKey(obj)
		}
		if obj := info.Defs[e]; obj != nil {
			return objKey(obj)
		}
	case *ast.SelectorExpr:
		base := mutexKey(info, e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	}
	return ""
}

// atomicLoadCall reports whether rhs is an atomic load — sync/atomic
// LoadPointer/Load* or a .Load() method on an atomic.Pointer/Value — looking
// through pointer-type conversions like (*T)(atomic.LoadPointer(...)).
func atomicLoadCall(info *types.Info, rhs ast.Expr) (string, bool) {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok {
		return "", false
	}
	// Unwrap a conversion: (*entry)(unsafe-loaded pointer).
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return atomicLoadCall(info, call.Args[0])
	}
	fn := calleeOf(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return "", false
	}
	if fn.Name() == "Load" || strings.HasPrefix(fn.Name(), "Load") {
		return callDisplayName(info, call), true
	}
	return "", false
}

// publishedValue returns the expression a publishing atomic call stores, or
// nil when the call publishes nothing (loads, adds) or the callee is not
// sync/atomic.
func publishedValue(info *types.Info, call *ast.CallExpr, name string) ast.Expr {
	fn := calleeOf(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	method := sig.Recv() != nil // atomic.Pointer[T].Store etc.
	switch {
	case strings.HasPrefix(fn.Name(), "Store"), strings.HasPrefix(fn.Name(), "Swap"):
		// Store(addr, val) / Swap(addr, val) — methods drop the addr.
		i := 1
		if method {
			i = 0
		}
		if i < len(call.Args) {
			return call.Args[i]
		}
	case strings.HasPrefix(fn.Name(), "CompareAndSwap"):
		// CompareAndSwap(addr, old, new) — new is what gets published.
		i := 2
		if method {
			i = 1
		}
		if i < len(call.Args) {
			return call.Args[i]
		}
	}
	return nil
}

// pointerOperand resolves the local object a published value denotes: a
// pointer-typed identifier, &ident (the ident then being the published
// storage), or a pointer conversion such as unsafe.Pointer(e). Returns nil
// for composite expressions — publishing `&entry{...}` inline leaves nothing
// mutable behind to misuse.
func pointerOperand(info *types.Info, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := info.Uses[e]
		if obj == nil {
			return nil
		}
		if _, ok := obj.Type().Underlying().(*types.Pointer); ok {
			return obj
		}
		return nil
	case *ast.UnaryExpr:
		if e.Op != token.AND {
			return nil
		}
		if id, ok := ast.Unparen(e.X).(*ast.Ident); ok {
			return info.Uses[id]
		}
		return nil
	case *ast.CallExpr:
		// Conversions: unsafe.Pointer(p), (*T)(p).
		if tv, ok := info.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			return pointerOperand(info, e.Args[0])
		}
		return nil
	}
	return nil
}

// reportIfLocked reports a blocking channel operation under a held mutex.
func (env *pubEnv) reportIfLocked(pos token.Pos, what string) {
	for _, m := range env.held {
		env.pass.Reportf(pos, "%s while mutex %s is held: every other locker stalls behind the wait (move the channel operation outside the critical section)", what, m)
		return
	}
}

// objKey renders a types.Object as a map key (pointer identity).
func objKey(obj types.Object) string {
	return fmt.Sprintf("o%p", obj)
}
