// Package verdictcheck forbids discarding a durability verdict. The WAL
// group-commit pipeline (PR 4) moves the moment of truth from "the call
// returned" to "the shared fsync's verdict arrived": wal.Ack.Wait,
// wal.WAL.Append/Sync/CheckpointAt, reldb.Txn.Commit,
// reldb.Database.Checkpoint and audit.Log.AppendChecked all return the only evidence that a record —
// or a snapshot — actually reached disk. Dropping that value
// — a bare call statement, `go`/`defer`, or assigning it to `_` — lets a
// store acknowledge progress it cannot prove, exactly the silent decay
// the paper's recovery discussion (§2.1) warns about. A deliberate drop
// must say why: `// seclint:exempt <reason>` on the call line.
package verdictcheck

import (
	"go/ast"
	"go/types"
	"strings"

	"webdbsec/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "verdictcheck",
	Doc: "the durability verdicts of wal.Ack.Wait, wal.WAL.Append/Sync/CheckpointAt/TruncateTo/InstallSnapshot, " +
		"reldb.Txn.Commit, reldb.Database.Checkpoint, audit.Log.AppendChecked, " +
		"replication.Node.WaitCommitted and the replica apply/restore verdicts must not be discarded",
	Run: run,
}

// verdictFuncs maps types.Func.FullName of every verdict-returning
// function to true. The verdict is always the function's last result.
var verdictFuncs = map[string]bool{
	"(*webdbsec/internal/wal.Ack).Wait":              true,
	"(*webdbsec/internal/wal.WAL).Append":            true,
	"(*webdbsec/internal/wal.WAL).Sync":              true,
	"(*webdbsec/internal/wal.WAL).CheckpointAt":      true,
	"(*webdbsec/internal/reldb.Txn).Commit":          true,
	"(*webdbsec/internal/reldb.Database).Checkpoint": true,
	"(*webdbsec/internal/audit.Log).AppendChecked":   true,

	// Replication verdicts (PR 6). WaitCommitted is the cluster-durability
	// half of a write ack: dropping it acknowledges a commit a failover can
	// still roll back. The apply/restore verdicts are a replica's only
	// evidence it still equals the leader — a dropped error silently forks
	// the replica's state. TruncateTo/InstallSnapshot rewrite log history
	// during divergence repair; an unchecked failure leaves the replica
	// claiming a position its log does not hold.
	"(*webdbsec/internal/replication.Node).WaitCommitted": true,
	"(*webdbsec/internal/reldb.Follower).Apply":           true,
	"(*webdbsec/internal/reldb.Follower).Restore":         true,
	"(*webdbsec/internal/wal.WAL).TruncateTo":             true,
	"(*webdbsec/internal/wal.WAL).InstallSnapshot":        true,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		lines := analysis.LineDirectives(pass.Fset, file)
		var stack []ast.Node
		ast.Inspect(file, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name, ok := verdictCallee(pass.TypesInfo, call)
			if !ok {
				return true
			}
			how, bad := discarded(stack, call)
			if !bad {
				return true
			}
			if analysis.HasLineDirective(lines, pass.Fset, call.Pos(), "exempt") {
				return true
			}
			pass.Reportf(call.Pos(), "durability verdict of %s is %s; check the error before acknowledging progress, or annotate // seclint:exempt <reason>",
				shortName(name), how)
			return true
		})
	}
	return nil
}

// verdictCallee resolves the call's static callee and reports whether it
// is one of the guarded verdict functions.
func verdictCallee(info *types.Info, call *ast.CallExpr) (string, bool) {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return "", false
	}
	fn, ok := info.Uses[id].(*types.Func)
	if !ok {
		return "", false
	}
	name := fn.FullName()
	return name, verdictFuncs[name]
}

// discarded reports whether the call's last result (the verdict) is
// dropped, and how, by inspecting the call's syntactic context. stack is
// the path from the file root to the call, inclusive.
func discarded(stack []ast.Node, call *ast.CallExpr) (string, bool) {
	if len(stack) < 2 {
		return "", false
	}
	switch parent := stack[len(stack)-2].(type) {
	case *ast.ExprStmt:
		return "discarded (bare call statement)", true
	case *ast.DeferStmt:
		return "unobservable (deferred call)", true
	case *ast.GoStmt:
		return "unobservable (go statement)", true
	case *ast.AssignStmt:
		// Locate which LHS receives the verdict. A single call on the
		// RHS spreads its results across the whole LHS; otherwise the
		// call contributes one value at its own RHS index.
		if len(parent.Rhs) == 1 {
			if isBlank(parent.Lhs[len(parent.Lhs)-1]) {
				return "assigned to _", true
			}
			return "", false
		}
		for i, rhs := range parent.Rhs {
			if ast.Unparen(rhs) == call && i < len(parent.Lhs) && isBlank(parent.Lhs[i]) {
				return "assigned to _", true
			}
		}
	}
	return "", false
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

// shortName strips the module prefix for readable diagnostics:
// (*webdbsec/internal/wal.WAL).Append -> (*wal.WAL).Append.
func shortName(full string) string {
	return strings.ReplaceAll(full, "webdbsec/internal/", "")
}
