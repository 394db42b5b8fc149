package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// Floatcmp forbids == and != between two computed floating-point or
// complex values. The conformance work of CHANGES.md PR 2 (the
// buildOrderLUT FP-tie fix) showed how float equality silently turns
// algebraic identities into rounding-dependent behaviour; the contract
// is that every such comparison in the codebase is either rewritten as
// an epsilon/ULP compare or carries a //lint:ignore floatcmp comment
// saying why exact equality is correct there (comparator ties, golden
// drift checks). A compare against the constant 0 is exact by
// construction — a division guard, an "unset" sentinel, a sparsity
// skip — and is allowed, as are compares of two constants.
var Floatcmp = &Analyzer{
	Name: "floatcmp",
	Doc:  "forbid ==/!= between two computed float or complex values outside annotated sites",
	Run:  runFloatcmp,
}

func runFloatcmp(pass *Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
				return true
			}
			if !isFloatish(pass.TypeOf(be.X)) && !isFloatish(pass.TypeOf(be.Y)) {
				return true
			}
			x, y := pass.Info.Types[be.X].Value, pass.Info.Types[be.Y].Value
			if (x != nil && y != nil) || isZero(x) || isZero(y) {
				return true // constant folded, or an exact compare with 0
			}
			kind := "floating-point"
			if isComplex(pass.TypeOf(be.X)) || isComplex(pass.TypeOf(be.Y)) {
				kind = "complex"
			}
			pass.Reportf(be.OpPos, "exact %s comparison %s — use an epsilon/ULP compare, or //lint:ignore floatcmp with why exact equality is correct", kind, types.ExprString(be))
			return true
		})
	}
}

// isZero reports whether v is a numeric constant equal to 0.
func isZero(v constant.Value) bool {
	if v == nil {
		return false
	}
	switch v.Kind() {
	case constant.Int, constant.Float, constant.Complex:
		return constant.Sign(v) == 0
	}
	return false
}

func isFloatish(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsFloat|types.IsComplex) != 0
}

func isComplex(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsComplex != 0
}
