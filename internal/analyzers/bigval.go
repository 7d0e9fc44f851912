package analyzers

import (
	"go/ast"
	"go/types"

	"blindfl/internal/analyzers/analysis"
)

// Bigval flags two mutable-aliasing footguns in the Paillier hot paths:
//
//  1. Copying a math/big value (big.Int, big.Float, big.Rat) or a
//     paillier.Ciphertext by value. A big.Int's limb slice is shared by the
//     copy, so in-place arithmetic on either corrupts the other — the
//     classic silent-corruption bug in code that mutates ciphertext
//     residues in place. Ciphertext is a one-pointer struct, so a value
//     copy aliases C the same way.
//
//  2. Mutating values obtained from the shared dot-table cache accessors
//     (hetensor's tableCacheGet/cachedTables). Cached *paillier.DotTables
//     are shared across every kernel invocation of the process and must
//     stay read-only; the only methods callable on a cache result are the
//     read-only ones (Dot, DotGroup, Window, Bytes).
var Bigval = &analysis.Analyzer{
	Name: "bigval",
	Doc: "flags big.Int/paillier.Ciphertext value copies and mutation of shared dot-table cache results\n\n" +
		"An initialized big.Int shares its limb storage with any value copy, so copies corrupt " +
		"each other under in-place arithmetic; dot-table cache entries are process-shared and read-only.",
	Run: runBigval,
}

// cacheAccessors are the functions whose results are shared read-only
// dot-table state (part 2 above).
var cacheAccessors = map[string]bool{
	"tableCacheGet": true,
	"cachedTables":  true,
}

// tableReadOnlyMethods are the methods a cache result may call.
var tableReadOnlyMethods = map[string]bool{
	"Dot":      true,
	"DotGroup": true,
	"Window":   true,
	"Bytes":    true,
}

func runBigval(pass *analysis.Pass) (interface{}, error) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				checkBigSignature(pass, n.Recv, n.Type)
				if n.Body != nil {
					checkCacheMutation(pass, n.Body)
				}
			case *ast.FuncLit:
				checkBigSignature(pass, nil, n.Type)
			case *ast.AssignStmt:
				for _, rhs := range n.Rhs {
					checkBigCopy(pass, rhs, "assignment copies")
				}
			case *ast.ValueSpec:
				for _, v := range n.Values {
					checkBigCopy(pass, v, "assignment copies")
				}
			case *ast.CallExpr:
				if isConv(pass, n) {
					break
				}
				for _, arg := range n.Args {
					checkBigCopy(pass, arg, "call passes")
				}
			case *ast.ReturnStmt:
				for _, r := range n.Results {
					checkBigCopy(pass, r, "return copies")
				}
			case *ast.CompositeLit:
				for _, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						el = kv.Value
					}
					checkBigCopy(pass, el, "composite literal copies")
				}
			case *ast.RangeStmt:
				if n.Value != nil {
					if t := pass.TypeOf(n.Value); containsBigValue(t, nil) {
						pass.Reportf(n.Value.Pos(), "range clause copies %s by value; range over pointers instead", typeLabel(t))
					}
				}
			}
			return true
		})
	}
	return nil, nil
}

// checkBigSignature flags by-value big parameters, results and receivers.
func checkBigSignature(pass *analysis.Pass, recv *ast.FieldList, ft *ast.FuncType) {
	lists := []*ast.FieldList{recv, ft.Params, ft.Results}
	for _, fl := range lists {
		if fl == nil {
			continue
		}
		for _, field := range fl.List {
			t := pass.TypeOf(field.Type)
			if containsBigValue(t, nil) {
				pass.Reportf(field.Type.Pos(), "signature passes %s by value; use a pointer (an initialized big.Int must never be copied)", typeLabel(t))
			}
		}
	}
}

// checkBigCopy flags expr when evaluating it copies an existing big value.
func checkBigCopy(pass *analysis.Pass, expr ast.Expr, how string) {
	// Type expressions (new(big.Int), the big.Int in a conversion) denote
	// types, not copied values.
	if tv, ok := pass.TypesInfo.Types[expr]; ok && (tv.IsType() || tv.IsBuiltin()) {
		return
	}
	t := pass.TypeOf(expr)
	if !containsBigValue(t, nil) {
		return
	}
	if freshValue(pass, expr) {
		return
	}
	pass.Reportf(expr.Pos(), "%s %s by value; use a pointer (an initialized big.Int must never be copied)", how, typeLabel(t))
}

// freshValue reports whether expr denotes a brand-new value (safe to bind)
// rather than a copy of existing storage.
func freshValue(pass *analysis.Pass, expr ast.Expr) bool {
	switch e := expr.(type) {
	case *ast.ParenExpr:
		return freshValue(pass, e.X)
	case *ast.CompositeLit, *ast.BasicLit, *ast.FuncLit:
		return true
	case *ast.CallExpr:
		if isConv(pass, e) && len(e.Args) == 1 {
			return freshValue(pass, e.Args[0])
		}
		// A call result is a new value; if a repo function returns big.Int
		// by value, its signature is flagged at the declaration instead.
		return true
	}
	return false
}

// containsBigValue reports whether t embeds a math/big value or a
// paillier.Ciphertext anywhere by value (not behind a pointer, slice or map).
func containsBigValue(t types.Type, seen map[types.Type]bool) bool {
	if t == nil {
		return false
	}
	t = types.Unalias(t)
	if seen[t] {
		return false
	}
	if pkg, name := namedType(t); name != "" {
		if fromPackage(pkg, "big") && (name == "Int" || name == "Float" || name == "Rat") {
			return true
		}
		if fromPackage(pkg, "paillier") && name == "Ciphertext" {
			return true
		}
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		if seen == nil {
			seen = map[types.Type]bool{}
		}
		seen[t] = true
		for i := 0; i < u.NumFields(); i++ {
			if containsBigValue(u.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Array:
		if seen == nil {
			seen = map[types.Type]bool{}
		}
		seen[t] = true
		return containsBigValue(u.Elem(), seen)
	}
	return false
}

// typeLabel renders t compactly for diagnostics.
func typeLabel(t types.Type) string {
	if t == nil {
		return "value"
	}
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}

// checkCacheMutation flags writes through, and non-read-only method calls
// on, variables bound to dot-table cache accessor results within one
// function body.
func checkCacheMutation(pass *analysis.Pass, body *ast.BlockStmt) {
	cached := map[types.Object]string{}
	ast.Inspect(body, func(n ast.Node) bool {
		asg, ok := n.(*ast.AssignStmt)
		if !ok || len(asg.Rhs) != 1 {
			return true
		}
		call, ok := asg.Rhs[0].(*ast.CallExpr)
		if !ok || !cacheAccessors[calleeName(call)] {
			return true
		}
		for _, lhs := range asg.Lhs {
			if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
				if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
					cached[obj] = calleeName(call)
				}
			}
		}
		return true
	})
	if len(cached) == 0 {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if id, chained := rootIdent(lhs); chained {
					if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
						if acc, ok := cached[obj]; ok {
							pass.Reportf(lhs.Pos(), "writes into the result of %s; cached DotTables are shared and read-only", acc)
						}
					}
				}
			}
		case *ast.IncDecStmt:
			if id, chained := rootIdent(n.X); chained {
				if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
					if acc, ok := cached[obj]; ok {
						pass.Reportf(n.Pos(), "writes into the result of %s; cached DotTables are shared and read-only", acc)
					}
				}
			}
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok || tableReadOnlyMethods[sel.Sel.Name] {
				return true
			}
			// Method call on a cache-derived value (v.M() or v[i].M()).
			if _, isMethod := pass.TypesInfo.Selections[sel]; !isMethod {
				return true
			}
			id, _ := rootIdent(sel.X)
			if id == nil {
				return true
			}
			if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
				if acc, ok := cached[obj]; ok {
					pass.Reportf(n.Pos(), "calls non-read-only method %s on the result of %s; cached DotTables are shared and read-only (allowed: Dot, DotGroup, Window, Bytes)", sel.Sel.Name, acc)
				}
			}
		}
		return true
	})
}

// rootIdent unwraps selector/index/star/paren chains to the base
// identifier; chained reports whether any unwrapping happened (x.f, x[i],
// *x — i.e. the expression reaches through the variable rather than
// rebinding it).
func rootIdent(e ast.Expr) (id *ast.Ident, chained bool) {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x, chained
		case *ast.SelectorExpr:
			e, chained = x.X, true
		case *ast.IndexExpr:
			e, chained = x.X, true
		case *ast.StarExpr:
			e, chained = x.X, true
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil, chained
		}
	}
}
