package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MapIter flags `range` over a map anywhere in the deterministic
// payload path: map iteration order is randomized per run, so any
// byte of output, any cache key, any float accumulation ordered by it
// silently breaks the byte-identical golden guarantee.
//
// Two shapes are recognized as order-independent and allowed without
// a comment:
//
//   - the key-collect idiom — a body that only appends the key to a
//     slice (which the surrounding code then sorts):
//     for k := range m { keys = append(keys, k) }
//   - the per-key rebuild idiom — a body that only writes an entry of
//     another map under the iteration key:
//     for k, v := range m { out[k] = v }   // or out[k] += v
//
// Anything else needs either sorting before iteration or an explicit
// //lint:ordered <why order cannot matter> justification on the line
// above the range statement.
var MapIter = &Analyzer{
	Name: "mapiter",
	Doc:  "flags map iteration in deterministic-path packages unless provably order-independent or justified with //lint:ordered",
	AppliesTo: func(pkgPath string) bool {
		return pathIn(pkgPath, DeterministicPathPackages)
	},
	Run: runMapIter,
}

// DeterministicPathPackages are the packages whose map iteration
// order can leak into simulation results, cache keys, golden output
// or stats/metrics exposition. cmd/ binaries are linted only through the
// libraries they call.
var DeterministicPathPackages = []string{
	"samielsq",
	"samielsq/internal/bpred",
	"samielsq/internal/cache",
	"samielsq/internal/cacti",
	"samielsq/internal/core",
	"samielsq/internal/cpu",
	"samielsq/internal/energy",
	"samielsq/internal/experiments",
	"samielsq/internal/experiments/engine",
	"samielsq/internal/isa",
	"samielsq/internal/lsq",
	"samielsq/internal/mem",
	"samielsq/internal/obs",
	"samielsq/internal/server",
	"samielsq/internal/stats",
	"samielsq/internal/tlb",
	"samielsq/internal/trace",
	"samielsq/pkg/client",
	"samielsq/pkg/cluster",
}

func runMapIter(p *Pass) error {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := p.Info.TypeOf(rng.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			if orderIndependentBody(p, rng) {
				return true
			}
			p.Reportf(rng.For, "iteration over map %s has randomized order; sort keys first, or justify with //lint:ordered", types.ExprString(rng.X))
			return true
		})
	}
	return nil
}

// orderIndependentBody recognizes the two allowed map-range shapes.
func orderIndependentBody(p *Pass, rng *ast.RangeStmt) bool {
	if rng.Body == nil || len(rng.Body.List) != 1 {
		return false
	}
	as, ok := rng.Body.List[0].(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false
	}
	keyObj := rangeVarObj(p, rng.Key)
	if keyObj == nil {
		return false
	}
	switch lhs := as.Lhs[0].(type) {
	case *ast.Ident:
		// keys = append(keys, k)
		if as.Tok != token.ASSIGN {
			return false
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok || len(call.Args) != 2 {
			return false
		}
		fn, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok || fn.Name != "append" {
			return false
		}
		if _, isBuiltin := p.Info.Uses[fn].(*types.Builtin); !isBuiltin {
			return false
		}
		dst, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
		if !ok || p.Info.Uses[dst] != p.Info.Uses[lhs] || p.Info.Uses[dst] == nil {
			return false
		}
		arg, ok := ast.Unparen(call.Args[1]).(*ast.Ident)
		return ok && p.Info.Uses[arg] == keyObj
	case *ast.IndexExpr:
		// out[k] = v, out[k] += v: distinct keys touch distinct
		// entries, so iteration order cannot matter.
		idx, ok := ast.Unparen(lhs.Index).(*ast.Ident)
		return ok && p.Info.Uses[idx] == keyObj
	}
	return false
}

func rangeVarObj(p *Pass, key ast.Expr) types.Object {
	id, ok := key.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	return p.Info.Defs[id]
}
