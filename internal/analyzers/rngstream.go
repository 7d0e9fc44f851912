package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"

	"blindfl/internal/analyzers/analysis"
)

// Rngstream flags RNG constructions whose seed is derived arithmetically
// from another seed — seed+1, seed*2+role, seed+int64(i) — in non-test
// code. Raw arithmetic makes streams alias: PR 5's mask-RNG bug seeded the
// two peers of session i with seed+i and seed+i+1, so adjacent sessions of
// a k-party group shared mask streams and the HE2SS obfuscation values
// correlated across sessions. Seeds must route through a hash derivation
// (rng.Session / rng.Derive, SplitMix64 over every distinguishing
// input) so distinct (seed, purpose) pairs cannot collide by construction.
var Rngstream = &analysis.Analyzer{
	Name: "rngstream",
	Doc: "flags rand seeds built by arithmetic on another seed instead of a hash derivation\n\n" +
		"seed+1/seed*2+role seeding makes RNG streams alias across sessions and roles (the PR 5 " +
		"mask-stream collision); derive seeds via rng.Session or rng.Derive instead.",
	Run: runRngstream,
}

// seedCalls maps math/rand (and math/rand/v2) constructors to the indices
// of their seed arguments.
var seedCalls = map[string][]int{
	"NewSource":  {0},    // rand.NewSource(seed)
	"NewPCG":     {0, 1}, // rand/v2 NewPCG(seed1, seed2)
	"NewZipf":    nil,    // not a seed
	"Seed":       {0},    // (*rand.Rand).Seed / rand.Seed
	"NewChaCha8": nil,    // [32]byte key, no int seed
}

// deriveCoords maps the sanctioned derivation entry points — package rng,
// plus protocol.NewPeer, which derives a peer's streams from the coordinates
// it is born with, and the pipes that call it with their seed — to the
// indices of their stream-coordinate arguments, keyed by the defining
// package's last path segment.
// Arithmetic in a coordinate re-creates inside the derivation exactly the
// aliasing it exists to prevent: rng.Session(seed, lo, j, role) equals
// rng.Session(seed, 0, lo+j, role) BY DESIGN, because folding coordinates is
// internal/rng's job — a caller folding its own (2*shard+j, seed^epoch, …)
// can silently collide with a neighboring shard's stream. Coordinates are
// passed separately; only package rng itself may combine them.
var deriveCoords = map[string]map[string][]int{
	"rng": {
		"Derive":       {0},
		"New":          {0},
		"Session":      {0, 1, 2},
		"SessionEpoch": {0, 1, 2, 4},
	},
	"protocol": {
		"NewPeer":   {3, 4, 5}, // NewPeer(role, conn, sk, seed, shard, session)
		"Pipe":      {2},       // Pipe(skA, skB, seed)
		"PipeOn":    {4},       // PipeOn(ca, cb, skA, skB, seed)
		"GroupPipe": {2},       // GroupPipe(skAs, skB, seed)
	},
}

func runRngstream(pass *analysis.Pass) (interface{}, error) {
	for _, f := range pass.Files {
		if isTestFile(pass, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || isConv(pass, call) {
				return true
			}
			for _, i := range coordIdxs(pass, call) {
				if i >= len(call.Args) {
					continue
				}
				if bad := arithmeticSeed(pass, call.Args[i]); bad != nil {
					pass.Reportf(bad.Pos(), "stream coordinate is built by arithmetic on another value; "+
						"pass the coordinates separately — folding them (shard+session, seed^epoch) is "+
						"internal/rng's job, and a caller's own fold can alias a neighboring stream "+
						"(PR 5 mask-RNG bug class)")
				}
			}
			idxs, ok := seedCalls[calleeName(call)]
			if !ok || idxs == nil || !isRandCall(pass, call) {
				return true
			}
			for _, i := range idxs {
				if i >= len(call.Args) {
					continue
				}
				if bad := arithmeticSeed(pass, call.Args[i]); bad != nil {
					pass.Reportf(bad.Pos(), "seed is derived arithmetically from another value; "+
						"route it through a SplitMix64 derivation (rng.Session / rng.Derive) "+
						"so streams cannot alias (PR 5 mask-RNG bug class)")
				}
			}
			return true
		})
	}
	return nil, nil
}

// coordIdxs returns the stream-coordinate argument indices when call is a
// sanctioned derivation entry point (deriveCoords), nil otherwise. Package
// rng itself is exempt: it is the one place coordinates may be folded.
func coordIdxs(pass *analysis.Pass, call *ast.CallExpr) []int {
	if fromPackage(pass.Pkg.Path(), "rng") {
		return nil
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return nil
	}
	pn, ok := pass.TypesInfo.ObjectOf(id).(*types.PkgName)
	if !ok {
		return nil
	}
	path := pn.Imported().Path()
	for seg, fns := range deriveCoords {
		if fromPackage(path, seg) {
			return fns[sel.Sel.Name]
		}
	}
	return nil
}

// isRandCall reports whether call resolves into a math/rand flavored
// package (matched by last path segment "rand", which also covers the
// analysistest fixtures and math/rand/v2's package name).
func isRandCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	// Package-level call: rand.NewSource(...).
	if id, ok := sel.X.(*ast.Ident); ok {
		if pn, isPkg := pass.TypesInfo.ObjectOf(id).(*types.PkgName); isPkg {
			return pathIsRand(pn.Imported().Path())
		}
	}
	// Method call: r.Seed(...) on a *rand.Rand.
	if selInfo, ok := pass.TypesInfo.Selections[sel]; ok {
		if fn := selInfo.Obj(); fn != nil && fn.Pkg() != nil {
			return pathIsRand(fn.Pkg().Path())
		}
	}
	return false
}

func pathIsRand(path string) bool {
	return path == "math/rand" || path == "math/rand/v2" ||
		fromPackage(path, "rand") || fromPackage(path, "v2")
}

// arithmeticSeed returns the offending sub-expression when the seed is an
// arithmetic combination of non-constant values, descending through parens,
// conversions and unary ops but never into real call arguments: a call
// result (mix64(seed+k), rng.Session(...)) is a hash-derived seed and
// is exactly what the invariant wants.
func arithmeticSeed(pass *analysis.Pass, e ast.Expr) ast.Expr {
	if tv, ok := pass.TypesInfo.Types[e]; ok && tv.Value != nil {
		return nil // compile-time constant: rand.NewSource(42+1) is fine
	}
	switch x := e.(type) {
	case *ast.ParenExpr:
		return arithmeticSeed(pass, x.X)
	case *ast.UnaryExpr:
		return arithmeticSeed(pass, x.X)
	case *ast.CallExpr:
		if isConv(pass, x) && len(x.Args) == 1 {
			return arithmeticSeed(pass, x.Args[0])
		}
		return nil
	case *ast.BinaryExpr:
		switch x.Op {
		case token.ADD, token.SUB, token.MUL, token.QUO, token.REM,
			token.AND, token.OR, token.XOR, token.SHL, token.SHR, token.AND_NOT:
			return x
		}
	}
	return nil
}
