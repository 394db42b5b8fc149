// Package cmatrix provides dense complex-valued linear algebra for MIMO
// detection: matrix products, Householder and sorted QR decompositions,
// matrix inversion and triangular solves.
//
// Matrices are row-major and sized for MIMO dimensions (tens of rows and
// columns), so the implementations favour clarity and numerical robustness
// over blocking or cache tricks.
package cmatrix

import (
	"fmt"
	"math"
	"math/cmplx"
	"strings"
)

// Matrix is a dense complex matrix stored in row-major order.
type Matrix struct {
	Rows, Cols int
	Data       []complex128
}

// New returns a zero-valued rows×cols matrix.
func New(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("cmatrix: invalid dimensions %d×%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]complex128, rows*cols)}
}

// Reshape returns a rows×cols matrix for the caller to overwrite: m
// itself, re-dimensioned over its own storage with unspecified contents,
// when that storage is large enough, and a new matrix otherwise (m may be
// nil). It lets a reused buffer regrow only past its high-water mark.
func Reshape(m *Matrix, rows, cols int) *Matrix {
	if m == nil || cap(m.Data) < rows*cols {
		return New(rows, cols)
	}
	m.Rows, m.Cols, m.Data = rows, cols, m.Data[:rows*cols]
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]complex128) *Matrix {
	if len(rows) == 0 || len(rows[0]) == 0 {
		panic("cmatrix: FromRows requires a non-empty row set")
	}
	m := New(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic("cmatrix: FromRows rows have differing lengths")
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) complex128 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v complex128) { m.Data[i*m.Cols+j] = v }

// Copy returns a deep copy of m.
func (m *Matrix) Copy() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// H returns the conjugate (Hermitian) transpose of m.
func (m *Matrix) H() *Matrix {
	t := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Data[j*t.Cols+i] = cmplx.Conj(m.Data[i*m.Cols+j])
		}
	}
	return t
}

// Mul returns the matrix product m·b.
func (m *Matrix) Mul(b *Matrix) *Matrix {
	if m.Cols != b.Rows {
		panic(fmt.Sprintf("cmatrix: Mul dimension mismatch %d×%d · %d×%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	p := New(m.Rows, b.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := 0; k < m.Cols; k++ {
			a := m.Data[i*m.Cols+k]
			if a == 0 {
				continue
			}
			rowB := b.Data[k*b.Cols : (k+1)*b.Cols]
			rowP := p.Data[i*p.Cols : (i+1)*p.Cols]
			for j := range rowB {
				rowP[j] += a * rowB[j]
			}
		}
	}
	return p
}

// MulVec returns the matrix-vector product m·x.
func (m *Matrix) MulVec(x []complex128) []complex128 {
	return m.MulVecInto(x, make([]complex128, m.Rows))
}

// MulVecInto computes m·x into y (len m.Rows) and returns y; the scratch
// variant used by allocation-free hot paths.
func (m *Matrix) MulVecInto(x, y []complex128) []complex128 {
	if m.Cols != len(x) {
		panic(fmt.Sprintf("cmatrix: MulVec dimension mismatch %d×%d · %d", m.Rows, m.Cols, len(x)))
	}
	if len(y) != m.Rows {
		panic(fmt.Sprintf("cmatrix: MulVecInto output length %d, want %d", len(y), m.Rows))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s complex128
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
	return y
}

// MulHVec returns mᴴ·x without forming the transpose.
func (m *Matrix) MulHVec(x []complex128) []complex128 {
	return m.MulHVecInto(x, make([]complex128, m.Cols))
}

// MulHVecInto computes mᴴ·x into y (len m.Cols) and returns y.
//
//flexcore:noalloc
func (m *Matrix) MulHVecInto(x, y []complex128) []complex128 {
	if m.Rows != len(x) {
		panic(fmt.Sprintf("cmatrix: MulHVec dimension mismatch %d×%d ᴴ· %d", m.Rows, m.Cols, len(x))) //lint:ignore noalloc cold panic path, never taken in steady state
	}
	if len(y) != m.Cols {
		panic(fmt.Sprintf("cmatrix: MulHVecInto output length %d, want %d", len(y), m.Cols)) //lint:ignore noalloc cold panic path, never taken in steady state
	}
	for i := range y {
		y[i] = 0
	}
	for i := 0; i < m.Rows; i++ {
		xi := x[i]
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, v := range row {
			y[j] += cmplx.Conj(v) * xi
		}
	}
	return y
}

// Add returns m + b.
func (m *Matrix) Add(b *Matrix) *Matrix {
	m.sameShape(b, "Add")
	c := m.Copy()
	for i, v := range b.Data {
		c.Data[i] += v
	}
	return c
}

// Sub returns m − b.
func (m *Matrix) Sub(b *Matrix) *Matrix {
	m.sameShape(b, "Sub")
	c := m.Copy()
	for i, v := range b.Data {
		c.Data[i] -= v
	}
	return c
}

// Scale returns a·m.
func (m *Matrix) Scale(a complex128) *Matrix {
	c := m.Copy()
	for i := range c.Data {
		c.Data[i] *= a
	}
	return c
}

// Col returns a copy of column j.
func (m *Matrix) Col(j int) []complex128 {
	c := make([]complex128, m.Rows)
	for i := 0; i < m.Rows; i++ {
		c[i] = m.Data[i*m.Cols+j]
	}
	return c
}

// SetCol assigns column j from v.
func (m *Matrix) SetCol(j int, v []complex128) {
	if len(v) != m.Rows {
		panic("cmatrix: SetCol length mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		m.Data[i*m.Cols+j] = v[i]
	}
}

// PermuteCols returns a matrix whose column k is m's column perm[k].
func (m *Matrix) PermuteCols(perm []int) *Matrix {
	if len(perm) != m.Cols {
		panic("cmatrix: PermuteCols length mismatch")
	}
	p := New(m.Rows, m.Cols)
	for k, src := range perm {
		for i := 0; i < m.Rows; i++ {
			p.Data[i*p.Cols+k] = m.Data[i*m.Cols+src]
		}
	}
	return p
}

// FrobeniusNorm returns the Frobenius norm of m.
func (m *Matrix) FrobeniusNorm() float64 {
	var s float64
	for _, v := range m.Data {
		s += real(v)*real(v) + imag(v)*imag(v)
	}
	return math.Sqrt(s)
}

// MaxAbs returns the largest element magnitude.
func (m *Matrix) MaxAbs() float64 {
	var mx float64
	for _, v := range m.Data {
		if a := cmplx.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// EqualApprox reports whether m and b agree elementwise within tol.
func (m *Matrix) EqualApprox(b *Matrix, tol float64) bool {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		return false
	}
	for i, v := range m.Data {
		if cmplx.Abs(v-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var sb strings.Builder
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			v := m.At(i, j)
			fmt.Fprintf(&sb, "%8.4f%+8.4fi ", real(v), imag(v))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func (m *Matrix) sameShape(b *Matrix, op string) {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		panic(fmt.Sprintf("cmatrix: %s shape mismatch %d×%d vs %d×%d", op, m.Rows, m.Cols, b.Rows, b.Cols))
	}
}
