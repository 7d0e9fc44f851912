package analyzers

import (
	"go/ast"

	"blindfl/internal/analyzers/analysis"
)

// Teardown enforces the transport lifecycle discipline PR 2 earned the hard
// way, in non-test code:
//
//  1. Direct Close() on a transport.Conn belongs in the approved lifecycle
//     helpers — RunParties/RunGroup (which close both/all conns on the
//     first party error so survivors unblock with ErrClosed instead of
//     hanging) or a Close method that is itself a close-once wrapper.
//     Ad-hoc closes re-create the double-close panic and the one-sided
//     teardown that left the peer blocked in Recv forever.
//
//  2. A goroutine that calls Send/Recv and discards the error has no error
//     path at all: when the conn breaks, the failure vanishes and whoever
//     waits on the goroutine's results hangs. Errors must be surfaced
//     (error channel, captured variable) or the conn closed/drained on the
//     failure path.
var Teardown = &analysis.Analyzer{
	Name: "teardown",
	Doc: "flags ad-hoc transport.Conn closes and goroutines that discard Send/Recv errors\n\n" +
		"Conn lifecycles are owned by RunParties/RunGroup-style helpers (close once, close all on " +
		"first error); ad-hoc closes and swallowed transport errors re-create the PR 2 " +
		"double-close panic and one-sided-failure hangs.",
	Run: runTeardown,
}

// teardownOwners are function names allowed to close conns directly:
//   - the party runners RunParties, RunGroup and RunShardRoot (the shard-root
//     runner owns every feature-party conn and shard link of a sharded run,
//     so one lost shard surfaces as one typed failure instead of k
//     cascades). Each hands the one runner, protocol.runAll, a teardown
//     closure written in its own body; runAll itself closes nothing;
//   - HandshakeAll, which closes every peer's conn on the first failed key
//     exchange so no other exchange stays blocked on a refused peer;
//   - any method literally named Close (a lifecycle wrapper taking ownership
//     of its conns, e.g. protocol.Group.Close);
//   - CloseSession (protocol.Group's sanctioned retire-one-session path,
//     which marks the session lost before closing so the group's bookkeeping
//     and the close cannot diverge).
var teardownOwners = map[string]bool{
	"RunParties":   true,
	"RunGroup":     true,
	"RunShardRoot": true,
	"HandshakeAll": true,
	"Close":        true,
	"CloseSession": true,
}

func runTeardown(pass *analysis.Pass) (interface{}, error) {
	// The transport package itself implements the lifecycle primitives.
	if fromPackage(pass.Pkg.Path(), "transport") {
		return nil, nil
	}
	for _, f := range pass.Files {
		if isTestFile(pass, f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			owner := teardownOwners[fd.Name.Name]
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					if owner {
						return true
					}
					sel, ok := n.Fun.(*ast.SelectorExpr)
					if !ok || sel.Sel.Name != "Close" || len(n.Args) != 0 {
						return true
					}
					if isTransportConn(pass, sel.X) {
						pass.Reportf(n.Pos(), "direct Close on a transport.Conn outside the lifecycle helpers "+
							"(RunParties/RunGroup/close-once wrappers); ad-hoc closes re-create the PR 2 "+
							"double-close and one-sided-teardown bugs")
					}
				case *ast.GoStmt:
					if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
						checkGoroutineSendRecv(pass, lit)
					}
				}
				return true
			})
		}
	}
	return nil, nil
}

// isTransportConn reports whether e's static type is the transport.Conn
// interface or one of the concrete conn wrappers (FaultConn, StreamConn,
// DeadlineConn) —
// possibly behind a pointer. Wrappers delegate Close to the conn they wrap,
// so closing through one is exactly the ad-hoc close the interface check
// guards against; without this, holding the concrete type would launder a
// close past the analyzer.
func isTransportConn(pass *analysis.Pass, e ast.Expr) bool {
	t := pass.TypeOf(e)
	if t == nil {
		return false
	}
	t = deref(t)
	return isNamed(t, "transport", "Conn") ||
		isNamed(t, "transport", "FaultConn") ||
		isNamed(t, "transport", "StreamConn") ||
		isNamed(t, "transport", "DeadlineConn")
}

// checkGoroutineSendRecv flags Send/Recv calls on transport conns inside a
// goroutine body whose error results are discarded.
func checkGoroutineSendRecv(pass *analysis.Pass, lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			// Nested goroutines get their own visit from the outer walk.
			return false
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok && isConnSendRecv(pass, call) {
				pass.Reportf(call.Pos(), "goroutine discards the %s error; surface it (error channel) or "+
					"close/drain the conn on the error path so a transport failure cannot strand the peer "+
					"(PR 2 bug class)", calleeName(call))
			}
		case *ast.AssignStmt:
			if len(n.Rhs) != 1 {
				return true
			}
			call, ok := n.Rhs[0].(*ast.CallExpr)
			if !ok || !isConnSendRecv(pass, call) {
				return true
			}
			// The error is the last result; discarded when its LHS is _.
			last := n.Lhs[len(n.Lhs)-1]
			if id, ok := last.(*ast.Ident); ok && id.Name == "_" {
				pass.Reportf(call.Pos(), "goroutine discards the %s error; surface it (error channel) or "+
					"close/drain the conn on the error path so a transport failure cannot strand the peer "+
					"(PR 2 bug class)", calleeName(call))
			}
		}
		return true
	})
}

// isConnSendRecv reports whether call is Send or Recv on a transport.Conn.
func isConnSendRecv(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if name := sel.Sel.Name; name != "Send" && name != "Recv" {
		return false
	}
	return isTransportConn(pass, sel.X)
}
