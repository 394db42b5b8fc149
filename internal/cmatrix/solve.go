package cmatrix

import (
	"errors"
	"math/cmplx"
)

// ErrSingular is returned when a solve or inversion meets a (numerically)
// singular matrix.
var ErrSingular = errors.New("cmatrix: matrix is singular")

// Inverse returns the inverse of the square matrix m using Gauss-Jordan
// elimination with partial pivoting.
func Inverse(m *Matrix) (*Matrix, error) {
	if m.Rows != m.Cols {
		panic("cmatrix: Inverse requires a square matrix")
	}
	n := m.Rows
	a := m.Copy()
	inv := Identity(n)
	for col := 0; col < n; col++ {
		// Partial pivot: the largest magnitude in this column.
		p := col
		best := cmplx.Abs(a.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := cmplx.Abs(a.At(r, col)); v > best {
				best, p = v, r
			}
		}
		if best == 0 {
			return nil, ErrSingular
		}
		if p != col {
			swapRows(a, p, col)
			swapRows(inv, p, col)
		}
		pivInv := 1 / a.At(col, col)
		for j := 0; j < n; j++ {
			a.Data[col*n+j] *= pivInv
			inv.Data[col*n+j] *= pivInv
		}
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := a.At(r, col)
			if f == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				a.Data[r*n+j] -= f * a.Data[col*n+j]
				inv.Data[r*n+j] -= f * inv.Data[col*n+j]
			}
		}
	}
	return inv, nil
}

// SolveUpperTriangular solves R·x = b by back substitution, where R is
// square upper triangular.
func SolveUpperTriangular(r *Matrix, b []complex128) ([]complex128, error) {
	if r.Rows != r.Cols || r.Rows != len(b) {
		panic("cmatrix: SolveUpperTriangular shape mismatch")
	}
	n := r.Rows
	x := make([]complex128, n)
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for j := i + 1; j < n; j++ {
			s -= r.At(i, j) * x[j]
		}
		d := r.At(i, i)
		if d == 0 {
			return nil, ErrSingular
		}
		x[i] = s / d
	}
	return x, nil
}

// PseudoInverseZF returns the zero-forcing filter (HᴴH)⁻¹Hᴴ.
func PseudoInverseZF(h *Matrix) (*Matrix, error) {
	hh := h.H()
	gram := hh.Mul(h)
	inv, err := Inverse(gram)
	if err != nil {
		return nil, err
	}
	return inv.Mul(hh), nil
}

// MMSEFilter returns the linear MMSE filter (HᴴH + (σ²/Es)·I)⁻¹Hᴴ for
// noise variance sigma2 and per-symbol energy es.
func MMSEFilter(h *Matrix, sigma2, es float64) (*Matrix, error) {
	hh := h.H()
	gram := hh.Mul(h)
	reg := complex(sigma2/es, 0)
	for i := 0; i < gram.Rows; i++ {
		gram.Data[i*gram.Cols+i] += reg
	}
	inv, err := Inverse(gram)
	if err != nil {
		return nil, err
	}
	return inv.Mul(hh), nil
}

func swapRows(m *Matrix, a, b int) {
	ra := m.Data[a*m.Cols : (a+1)*m.Cols]
	rb := m.Data[b*m.Cols : (b+1)*m.Cols]
	for i := range ra {
		ra[i], rb[i] = rb[i], ra[i]
	}
}
