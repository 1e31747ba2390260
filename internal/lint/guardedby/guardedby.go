// Package guardedby enforces the mutex annotations on struct fields: a
// field whose declaration carries a `// guarded by <mu>` comment (where
// <mu> names a sync.Mutex or sync.RWMutex field of the same struct) may
// only be accessed while that mutex is held on every path reaching the
// access. Reads are satisfied by either Lock or RLock; assignments and
// ++/-- require the exclusive lock. This machine-checks the locking
// contracts the serve registry (graphs/writers maps, per-entry last error,
// per-structure PPR flight table) and the WAL store state rely on.
//
// The analysis interprets each function body over structured control flow
// (lint.FlowInterp): lock state forks at branches and a fact survives a
// join only if it holds on every live path, so an early-return error path
// that unlocks does not poison the accesses after the branch. `defer
// mu.Unlock()` keeps the mutex held through the rest of the body, which is
// exactly its semantics.
//
// Escape hatches, each of which must be spelled in the source:
//   - a function whose doc comment carries `//lint:holds <path>[, <path>]`
//     is assumed to be called with those mutexes held (exclusively);
//   - a method whose name ends in "Locked" is assumed to hold every mutex
//     guarding fields of its receiver's struct — the project's naming
//     convention for lock-held helpers;
//   - locals that are provably this function's own fresh allocation (every
//     assignment to them is a composite literal or new()) are exempt: a
//     constructor may fill its unshared value without locks.
//
// Function literals are analyzed as separate functions with no held locks:
// a goroutine or stored callback does not inherit its creator's critical
// section. Literals that genuinely run under the caller's lock can use an
// ignore directive at the access.
package guardedby

import (
	"go/ast"
	"go/types"
	"maps"
	"regexp"
	"strings"

	"repro/internal/lint"
)

// Analyzer is the guardedby pass.
var Analyzer = &lint.Analyzer{
	Name: "guardedby",
	Doc:  "enforces `// guarded by <mu>` field annotations: annotated fields are only touched with the mutex held on all paths",
	Run:  run,
}

// lock kinds in the abstract state.
const (
	kindShared    = 1
	kindExclusive = 2
)

// lockState maps a rendered mutex path ("e.mu") to how it is held.
type lockState map[string]int8

// annotation records one guarded field.
type annotation struct {
	mu    string        // sibling mutex field name
	owner *types.Struct // struct the field belongs to
}

var guardedRE = regexp.MustCompile(`guarded by ([A-Za-z_][A-Za-z0-9_]*)`)

func run(pass *lint.Pass) error {
	annots := collectAnnotations(pass)
	if len(annots) == 0 {
		return nil
	}
	lint.FuncBodies(pass, func(decl *ast.FuncDecl, body *ast.BlockStmt, isLit bool) {
		fn := &funcCheck{pass: pass, annots: annots}
		entry := lockState{}
		if !isLit && decl != nil {
			entry = entryState(pass, decl, annots)
		}
		fn.owned = ownedLocals(pass, body)
		if isLit && decl != nil && decl.Body != nil {
			// A literal sees its enclosing function's freshly allocated
			// locals (a constructor's sort.Slice closure over the value it
			// is filling). Lock state does NOT carry over — ownership is
			// about the value never having been shared, which holds wherever
			// the literal runs.
			for obj := range ownedLocals(pass, decl.Body) {
				fn.owned[obj] = true
			}
		}
		interp := &lint.FlowInterp{
			Exec:  fn.exec,
			Clone: func(st any) any { return maps.Clone(st.(lockState)) },
			Merge: mergeLocks,
		}
		interp.WalkBody(body, entry)
	})
	return nil
}

// collectAnnotations parses every `// guarded by <mu>` field comment in the
// package, validating that the named mutex is a sibling field of a lockable
// type.
func collectAnnotations(pass *lint.Pass) map[types.Object]annotation {
	annots := make(map[types.Object]annotation)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				mu := annotationOf(field)
				if mu == "" {
					continue
				}
				if !hasLockField(pass, st, mu) {
					pass.Reportf(field.Pos(),
						"field is annotated `guarded by %s`, but the struct has no sync.Mutex/sync.RWMutex field named %s", mu, mu)
					continue
				}
				for _, name := range field.Names {
					obj := pass.TypesInfo.Defs[name]
					if obj == nil {
						continue
					}
					owner, _ := pass.TypesInfo.TypeOf(st).(*types.Struct)
					annots[obj] = annotation{mu: mu, owner: owner}
				}
			}
			return true
		})
	}
	return annots
}

// annotationOf extracts the guarded-by mutex name from a field's comments.
func annotationOf(field *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		if m := guardedRE.FindStringSubmatch(cg.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}

// hasLockField reports whether st declares a field named mu of a mutex type.
func hasLockField(pass *lint.Pass, st *ast.StructType, mu string) bool {
	for _, field := range st.Fields.List {
		for _, name := range field.Names {
			if name.Name != mu {
				continue
			}
			t := pass.TypesInfo.TypeOf(field.Type)
			return lint.IsNamedType(t, "sync", "Mutex") || lint.IsNamedType(t, "sync", "RWMutex")
		}
	}
	return false
}

var holdsRE = regexp.MustCompile(`//lint:holds ([^\n]+)`)

// entryState derives a function's assumed-held locks from its doc directive
// and the *Locked naming convention.
func entryState(pass *lint.Pass, decl *ast.FuncDecl, annots map[types.Object]annotation) lockState {
	st := lockState{}
	if decl.Doc != nil {
		for _, c := range decl.Doc.List {
			if m := holdsRE.FindStringSubmatch(c.Text); m != nil {
				for _, p := range strings.Split(m[1], ",") {
					st[strings.TrimSpace(p)] = kindExclusive
				}
			}
		}
	}
	if strings.HasSuffix(decl.Name.Name, "Locked") && decl.Recv != nil && len(decl.Recv.List) == 1 {
		recv := decl.Recv.List[0]
		if len(recv.Names) == 1 {
			rt := pass.TypesInfo.TypeOf(recv.Type)
			if ptr, ok := rt.(*types.Pointer); ok {
				rt = ptr.Elem()
			}
			if named, ok := rt.(*types.Named); ok {
				if strct, ok := named.Underlying().(*types.Struct); ok {
					for _, ann := range annots {
						if ann.owner == strct {
							st[recv.Names[0].Name+"."+ann.mu] = kindExclusive
						}
					}
				}
			}
		}
	}
	return st
}

// ownedLocals finds locals whose every assignment is a fresh allocation
// (composite literal, optionally behind &, or new()): values this function
// owns exclusively until it shares them.
func ownedLocals(pass *lint.Pass, body *ast.BlockStmt) map[types.Object]bool {
	fresh := make(map[types.Object]bool)
	shared := make(map[types.Object]bool)
	note := func(id *ast.Ident, rhs ast.Expr) {
		obj := pass.TypesInfo.ObjectOf(id)
		if obj == nil {
			return
		}
		if isFreshAlloc(pass, rhs) {
			fresh[obj] = true
		} else {
			shared[obj] = true
		}
	}
	lint.WalkExprs(body, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == len(as.Rhs) {
			for i, lhs := range as.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
					note(id, as.Rhs[i])
				}
			}
		}
		return true
	})
	for obj := range shared {
		delete(fresh, obj)
	}
	return fresh
}

func isFreshAlloc(pass *lint.Pass, e ast.Expr) bool {
	e = ast.Unparen(e)
	if un, ok := e.(*ast.UnaryExpr); ok {
		e = ast.Unparen(un.X)
	}
	switch e := e.(type) {
	case *ast.CompositeLit:
		return true
	case *ast.CallExpr:
		if id, ok := e.Fun.(*ast.Ident); ok && id.Name == "new" {
			_, builtin := pass.TypesInfo.ObjectOf(id).(*types.Builtin)
			return builtin
		}
	}
	return false
}

// funcCheck is the per-function analysis.
type funcCheck struct {
	pass   *lint.Pass
	annots map[types.Object]annotation
	owned  map[types.Object]bool
}

// exec interprets one statement or control-flow expression: it checks every
// guarded access it contains against the current lock state, then applies
// the statement's Lock/Unlock effects.
func (fc *funcCheck) exec(n ast.Node, stAny any) any {
	st := stAny.(lockState)
	writes := writeTargets(n)
	deferred := false
	if d, ok := n.(*ast.DeferStmt); ok {
		deferred = true
		n = d.Call
	}
	lint.WalkExprs(n, func(c ast.Node) bool {
		switch c := c.(type) {
		case *ast.SelectorExpr:
			fc.checkAccess(c, writes[c], st)
		case *ast.CallExpr:
			if !deferred {
				applyLockCall(fc.pass, c, st)
			}
		}
		return true
	})
	return st
}

// writeTargets collects the selector expressions a statement assigns to.
func writeTargets(n ast.Node) map[*ast.SelectorExpr]bool {
	w := make(map[*ast.SelectorExpr]bool)
	add := func(e ast.Expr) {
		e = ast.Unparen(e)
		// A map/slice store (r.items[k] = v) mutates the container the
		// field holds: it is a write to the field for locking purposes.
		if idx, ok := e.(*ast.IndexExpr); ok {
			e = ast.Unparen(idx.X)
		}
		if sel, ok := e.(*ast.SelectorExpr); ok {
			w[sel] = true
		}
	}
	switch n := n.(type) {
	case *ast.AssignStmt:
		for _, lhs := range n.Lhs {
			add(lhs)
		}
	case *ast.IncDecStmt:
		add(n.X)
	}
	return w
}

// checkAccess reports sel if it reads or writes an annotated field without
// the required lock.
func (fc *funcCheck) checkAccess(sel *ast.SelectorExpr, isWrite bool, st lockState) {
	selInfo, ok := fc.pass.TypesInfo.Selections[sel]
	if !ok || selInfo.Kind() != types.FieldVal {
		return
	}
	ann, ok := fc.annots[selInfo.Obj()]
	if !ok {
		return
	}
	base, ok := lint.PathString(sel.X)
	if !ok {
		// The base is not a simple path (call result, index, ...): we cannot
		// name its mutex, so we cannot check it. Stay silent rather than
		// guess.
		return
	}
	if root, _, _ := strings.Cut(base, "."); fc.ownedRoot(sel.X, root) {
		return
	}
	muPath := base + "." + ann.mu
	held := st[muPath]
	switch {
	case held == 0:
		fc.pass.Reportf(sel.Pos(),
			"%s is guarded by %s, which is not held on every path to this access (lock it, or annotate the function with //lint:holds %s)",
			types.ExprString(sel), muPath, muPath)
	case isWrite && held == kindShared:
		fc.pass.Reportf(sel.Pos(),
			"write to %s requires %s held exclusively, but only the read lock is held here",
			types.ExprString(sel), muPath)
	}
}

// ownedRoot reports whether the access base is rooted in a local this
// function freshly allocated and still owns.
func (fc *funcCheck) ownedRoot(base ast.Expr, rootName string) bool {
	for {
		switch b := ast.Unparen(base).(type) {
		case *ast.SelectorExpr:
			base = b.X
			continue
		case *ast.Ident:
			obj := fc.pass.TypesInfo.ObjectOf(b)
			return obj != nil && obj.Name() == rootName && fc.owned[obj]
		default:
			return false
		}
	}
}

// applyLockCall mutates st for a mutex Lock/Unlock/RLock/RUnlock call.
func applyLockCall(pass *lint.Pass, call *ast.CallExpr, st lockState) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	var effect func(lockState, string)
	switch sel.Sel.Name {
	case "Lock":
		effect = func(st lockState, p string) { st[p] = kindExclusive }
	case "RLock":
		effect = func(st lockState, p string) { st[p] = kindShared }
	case "Unlock", "RUnlock":
		effect = func(st lockState, p string) { delete(st, p) }
	default:
		return
	}
	rt := pass.TypesInfo.TypeOf(sel.X)
	if !lint.IsNamedType(rt, "sync", "Mutex") && !lint.IsNamedType(rt, "sync", "RWMutex") {
		return
	}
	if path, ok := lint.PathString(sel.X); ok {
		effect(st, path)
	}
}

// mergeLocks is the conservative meet: a mutex survives the join only if
// both paths hold it, and a shared hold on either side demotes the result.
func mergeLocks(a, b any) any {
	la, lb := a.(lockState), b.(lockState)
	out := lockState{}
	for p, ka := range la {
		if kb, ok := lb[p]; ok {
			out[p] = min(ka, kb)
		}
	}
	return out
}
