// Package guardedby checks mutex discipline for struct fields annotated
// `// seclint:guardedby <mutexField>`: inside every function, an access
// to such a field must be lexically preceded by `<base>.<mutexField>.Lock()`
// (or RLock) on the same receiver expression, with no intervening Unlock.
// Functions that run with the lock already held by their caller — or that
// own the value exclusively, such as constructors before publication —
// declare it with `// seclint:locked` on the function or on the access
// line.
//
// Fields annotated `// seclint:atomicptr <mutexField>` follow the MVCC
// publication discipline instead: the field is an atomic pointer whose
// Load is lock-free by design (that is the point of the version pointer),
// but Store/Swap/CompareAndSwap install a new version and must hold the
// named mutex — exactly one writer publishes at a time, and the sweep of
// superseded versions it serializes with. Any other use of the field
// (taking its address, copying it) is reported like a guardedby access.
//
// The check is lexical, not a dataflow analysis: it tracks Lock/Unlock
// calls in source order within one function body (deferred Unlocks run at
// return and therefore do not clear the held state), and it does not
// follow aliases of the receiver. That is exactly the discipline the
// wal/reldb/audit/decisioncache code actually uses — lock at the top,
// defer the unlock, or document "caller holds mu" — so anything the
// heuristic cannot prove is either a real bug or a place that deserves an
// explicit annotation.
package guardedby

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"webdbsec/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "guardedby",
	Doc: "fields annotated `seclint:guardedby mu` may only be accessed with the named mutex held " +
		"in the enclosing function, or under a `seclint:locked` escape hatch; fields annotated " +
		"`seclint:atomicptr mu` allow lock-free Load but require the mutex for Store/Swap/CompareAndSwap",
	Run: run,
}

// guard records the annotation on one field.
type guard struct {
	mu     string // sibling mutex field name
	strukt string // owning struct's type name, for messages
	atomic bool   // atomicptr discipline: Load free, mutation under mu
}

func run(pass *analysis.Pass) error {
	guards := collectGuards(pass)
	if len(guards) == 0 {
		return nil
	}
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			// Test bodies poke internals single-threaded and run under
			// -race in make check; the lock invariant targets production
			// code paths.
			continue
		}
		lines := analysis.LineDirectives(pass.Fset, file)
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if _, locked := analysis.GroupDirective(fn.Doc, "locked"); locked {
				continue
			}
			checkScope(pass, guards, lines, fn.Body)
		}
	}
	return nil
}

// collectGuards finds every annotated field declared in this package.
func collectGuards(pass *analysis.Pass) map[types.Object]guard {
	guards := make(map[types.Object]guard)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				for _, verb := range []string{"guardedby", "atomicptr"} {
					d, ok := analysis.GroupDirective(field.Doc, verb)
					if !ok {
						d, ok = analysis.GroupDirective(field.Comment, verb)
					}
					if !ok || d.Args == "" {
						continue
					}
					for _, name := range field.Names {
						if obj := pass.TypesInfo.Defs[name]; obj != nil {
							guards[obj] = guard{mu: d.Args, strukt: ts.Name.Name, atomic: verb == "atomicptr"}
						}
					}
				}
			}
			return true
		})
	}
	return guards
}

// lockEvent is one Lock/Unlock call on some "<base>.<mu>" expression.
type lockEvent struct {
	pos    token.Pos
	target string // rendering of the mutex expression, e.g. "w.mu"
	held   bool   // true for Lock/RLock, false for Unlock/RUnlock
}

// fieldAccess is one read or write of a guarded field.
type fieldAccess struct {
	pos   token.Pos
	base  string // rendering of the receiver expression, e.g. "w"
	field string
	g     guard
}

// checkScope analyzes one function body. Nested function literals are
// separate scopes: a closure does not inherit the textual lock state of
// its creator, because it may run on another goroutine.
func checkScope(pass *analysis.Pass, guards map[types.Object]guard, lines map[int][]analysis.Directive, body *ast.BlockStmt) {
	var events []lockEvent
	var accesses []fieldAccess
	deferred := make(map[*ast.CallExpr]bool)
	// handled marks inner selectors of atomicptr method calls already
	// classified via the outer selector (x.field.Load vs x.field.Store).
	handled := make(map[*ast.SelectorExpr]bool)
	var nested []*ast.FuncLit

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			nested = append(nested, n)
			return false
		case *ast.DeferStmt:
			deferred[n.Call] = true
		case *ast.CallExpr:
			if target, held, ok := lockOp(n); ok && !deferred[n] {
				events = append(events, lockEvent{pos: n.Pos(), target: target, held: held})
			}
		case *ast.SelectorExpr:
			// Method selector over an atomicptr field: classify by the
			// method. Load is the lock-free read path and always legal;
			// everything else publishes and needs the mutex.
			if inner, isSel := n.X.(*ast.SelectorExpr); isSel {
				if obj := fieldOrigin(pass.TypesInfo.Uses[inner.Sel]); obj != nil {
					if g, isGuarded := guards[obj]; isGuarded && g.atomic {
						handled[inner] = true
						if n.Sel.Name != "Load" {
							accesses = append(accesses, fieldAccess{
								pos:   inner.Sel.Pos(),
								base:  types.ExprString(inner.X),
								field: inner.Sel.Name,
								g:     g,
							})
						}
						return true
					}
				}
			}
			if handled[n] {
				return true
			}
			obj := fieldOrigin(pass.TypesInfo.Uses[n.Sel])
			if obj == nil {
				return true
			}
			g, ok := guards[obj]
			if !ok {
				return true
			}
			accesses = append(accesses, fieldAccess{
				pos:   n.Sel.Pos(),
				base:  types.ExprString(n.X),
				field: n.Sel.Name,
				g:     g,
			})
		}
		return true
	})

	sort.Slice(events, func(i, j int) bool { return events[i].pos < events[j].pos })
	for _, acc := range accesses {
		if analysis.HasLineDirective(lines, pass.Fset, acc.pos, "locked") {
			continue
		}
		want := acc.base + "." + acc.g.mu
		held := false
		for _, ev := range events {
			if ev.pos >= acc.pos {
				break
			}
			if ev.target == want {
				held = ev.held
			}
		}
		if !held {
			if acc.g.atomic {
				pass.Reportf(acc.pos, "%s.%s (%s.%s) is an atomic pointer published under %s: Load is lock-free, but installing a version requires the mutex; acquire it, or annotate // seclint:locked if the caller holds it",
					acc.base, acc.field, acc.g.strukt, acc.field, want)
				continue
			}
			pass.Reportf(acc.pos, "%s.%s (%s.%s) is guarded by %s but the mutex is not held here; acquire it, or annotate // seclint:locked if the caller holds it",
				acc.base, acc.field, acc.g.strukt, acc.field, want)
		}
	}

	for _, lit := range nested {
		checkScope(pass, guards, lines, lit.Body)
	}
}

// fieldOrigin maps a field of an instantiated generic struct back to the
// field the annotation was collected from. Inside a generic type's own
// methods the receiver is an instantiation, and every field whose type
// mentions a type parameter is a substituted copy there.
func fieldOrigin(obj types.Object) types.Object {
	if v, ok := obj.(*types.Var); ok {
		return v.Origin()
	}
	return obj
}

// lockOp recognizes `<expr>.Lock()`, `RLock`, `Unlock`, `RUnlock` calls
// and returns the rendered mutex expression.
func lockOp(call *ast.CallExpr) (target string, held, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel || len(call.Args) != 0 {
		return "", false, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		return types.ExprString(sel.X), true, true
	case "Unlock", "RUnlock":
		return types.ExprString(sel.X), false, true
	}
	return "", false, false
}
