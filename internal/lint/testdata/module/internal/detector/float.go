// Package detector is the floatcmp fixture: it mirrors the real
// repository's internal/detector import path.
package detector

func eq(a, b float64) bool {
	return a == b // want "exact floating-point comparison a == b"
}

func neq(a, b complex128) bool {
	return a != b // want "exact complex comparison a != b"
}

func mixed(a float64, n int) bool {
	return a == float64(n) // want "exact floating-point comparison"
}

func constFolded() bool {
	return 1.0 == 2.0/2.0 // both operands constant: folded, legal
}

func nearZero(x float64) bool {
	return x == 1e-300 // want "exact floating-point comparison x == 1e-300"
}

// Compares with the constant 0 are exact by construction: a division
// guard, an "unset" sentinel, a sparsity skip. None is flagged.
func zeroGuards(x float64, z complex128) bool {
	if x == 0 || 0.0 != x {
		return false
	}
	return z != 0
}

func intsAreFine(a, b int) bool {
	return a == b
}
