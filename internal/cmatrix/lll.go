package cmatrix

import (
	"math"
	"math/cmplx"
)

// roundGaussian rounds a complex number to the nearest Gaussian integer.
func roundGaussian(v complex128) complex128 {
	return complex(math.Round(real(v)), math.Round(imag(v)))
}

// CLLL performs complex Lenstra–Lenstra–Lovász lattice basis reduction
// (Gan, Ling, Mow — the paper's related-work reference [15]) on the
// columns of g with parameter delta ∈ (0.5, 1]. It returns the reduced
// basis B = g·T and the unimodular Gaussian-integer transform T.
//
// The implementation is the textbook iterate-until-stable formulation
// (fresh Gram-Schmidt per round): simple and robust, with the O(Nt⁴)-ish
// sequential cost the paper cites as the reason lattice reduction does
// not fit large MIMO APs — which the ablation benchmarks measure.
func CLLL(g *Matrix, delta float64) (b, t *Matrix) {
	n := g.Cols
	b = g.Copy()
	t = Identity(n)

	cols := func(m *Matrix) [][]complex128 {
		out := make([][]complex128, n)
		for j := 0; j < n; j++ {
			out[j] = m.Col(j)
		}
		return out
	}
	setCols := func(m *Matrix, c [][]complex128) {
		for j := 0; j < n; j++ {
			m.SetCol(j, c[j])
		}
	}

	bc := cols(b)
	tc := cols(t)

	// gramSchmidt returns the orthogonalised squared norms and the mu
	// coefficients of the current basis.
	gramSchmidt := func() (norms []float64, mu [][]complex128) {
		star := make([][]complex128, n)
		norms = make([]float64, n)
		mu = make([][]complex128, n)
		for i := 0; i < n; i++ {
			mu[i] = make([]complex128, n)
			star[i] = CopyVec(bc[i])
			for j := 0; j < i; j++ {
				if norms[j] == 0 {
					continue
				}
				mu[i][j] = Dot(star[j], bc[i]) / complex(norms[j], 0)
				AXPY(-mu[i][j], star[j], star[i])
			}
			norms[i] = Norm2(star[i])
		}
		return norms, mu
	}

	const maxRounds = 1000
	for round := 0; round < maxRounds; round++ {
		changed := false
		norms, mu := gramSchmidt()
		// Size reduction.
		for k := 1; k < n; k++ {
			for j := k - 1; j >= 0; j-- {
				q := roundGaussian(mu[k][j])
				if q == 0 {
					continue
				}
				AXPY(-q, bc[j], bc[k])
				AXPY(-q, tc[j], tc[k])
				changed = true
				// Keep mu approximately current for the remaining j.
				for l := 0; l <= j; l++ {
					mu[k][l] -= q * mu[j][l]
				}
			}
		}
		if changed {
			norms, mu = gramSchmidt()
		}
		// Lovász condition; swap the first violating pair.
		swapped := false
		for k := 1; k < n; k++ {
			m2 := real(mu[k][k-1])*real(mu[k][k-1]) + imag(mu[k][k-1])*imag(mu[k][k-1])
			if norms[k] < (delta-m2)*norms[k-1] {
				bc[k-1], bc[k] = bc[k], bc[k-1]
				tc[k-1], tc[k] = tc[k], tc[k-1]
				swapped = true
				break
			}
		}
		if !changed && !swapped {
			break
		}
	}
	setCols(b, bc)
	setCols(t, tc)
	return b, t
}

// OrthogonalityDefect returns Π‖b_i‖ / |det(BᴴB)|^{1/2}, a standard
// reduction-quality measure (1 = orthogonal basis).
func OrthogonalityDefect(b *Matrix) float64 {
	prod := 1.0
	for j := 0; j < b.Cols; j++ {
		prod *= Norm(b.Col(j))
	}
	// Volume via the R factor of a QR decomposition.
	qr := QR(b)
	vol := 1.0
	for i := 0; i < b.Cols; i++ {
		vol *= real(qr.R.At(i, i))
	}
	if vol == 0 {
		return math.Inf(1)
	}
	return prod / vol
}

// IsUnimodular reports whether t has Gaussian-integer entries and unit
// determinant magnitude (so t⁻¹ is also a Gaussian-integer matrix).
func IsUnimodular(t *Matrix, tol float64) bool {
	for _, v := range t.Data {
		if cmplx.Abs(v-roundGaussian(v)) > tol {
			return false
		}
	}
	d := determinant(t)
	return math.Abs(cmplx.Abs(d)-1) < tol
}

// determinant computes det(m) by LU elimination with partial pivoting.
func determinant(m *Matrix) complex128 {
	if m.Rows != m.Cols {
		panic("cmatrix: determinant requires a square matrix")
	}
	n := m.Rows
	a := m.Copy()
	det := complex(1, 0)
	for col := 0; col < n; col++ {
		p := col
		best := cmplx.Abs(a.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := cmplx.Abs(a.At(r, col)); v > best {
				best, p = v, r
			}
		}
		if best == 0 {
			return 0
		}
		if p != col {
			swapRows(a, p, col)
			det = -det
		}
		piv := a.At(col, col)
		det *= piv
		for r := col + 1; r < n; r++ {
			f := a.At(r, col) / piv
			if f == 0 {
				continue
			}
			for j := col; j < n; j++ {
				a.Data[r*n+j] -= f * a.Data[col*n+j]
			}
		}
	}
	return det
}
