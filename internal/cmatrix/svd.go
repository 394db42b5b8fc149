package cmatrix

import (
	"math"
	"math/cmplx"
	"sort"
)

// SingularValues returns the singular values of m (Rows ≥ Cols) in
// descending order, computed with a one-sided complex Jacobi iteration.
// The method rotates column pairs until all pairs are orthogonal; the
// singular values are then the column norms.
func SingularValues(m *Matrix) []float64 {
	if m.Rows < m.Cols {
		m = m.H()
	}
	a := m.Copy()
	n := a.Cols
	const (
		maxSweeps = 60
		tol       = 1e-12
	)
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				cp := a.Col(p)
				cq := a.Col(q)
				app := Norm2(cp)
				aqq := Norm2(cq)
				apq := Dot(cp, cq)
				mag := cmplx.Abs(apq)
				if mag <= tol*math.Sqrt(app*aqq) || mag == 0 {
					continue
				}
				off += mag
				// Complex Jacobi rotation orthogonalising columns p and q.
				phase := apq / complex(mag, 0)
				tau := (aqq - app) / (2 * mag)
				t := math.Copysign(1, tau) / (math.Abs(tau) + math.Sqrt(1+tau*tau))
				c := 1 / math.Sqrt(1+t*t)
				s := c * t
				cs := complex(c, 0)
				sn := complex(s, 0) * phase
				for i := 0; i < a.Rows; i++ {
					vp := a.At(i, p)
					vq := a.At(i, q)
					a.Set(i, p, cs*vp-cmplx.Conj(sn)*vq)
					a.Set(i, q, sn*vp+cs*vq)
				}
			}
		}
		if off < tol {
			break
		}
	}
	sv := make([]float64, n)
	for j := 0; j < n; j++ {
		sv[j] = Norm(a.Col(j))
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(sv)))
	return sv
}

// Cond2 returns the 2-norm condition number σ_max/σ_min of m, or +Inf when
// the matrix is numerically rank deficient.
func Cond2(m *Matrix) float64 {
	sv := SingularValues(m)
	smin := sv[len(sv)-1]
	if smin == 0 {
		return math.Inf(1)
	}
	return sv[0] / smin
}
