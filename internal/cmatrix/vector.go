package cmatrix

import (
	"math"
	"math/cmplx"
)

// Dot returns the inner product ⟨a, b⟩ = aᴴ·b.
//
//flexcore:noalloc
func Dot(a, b []complex128) complex128 {
	if len(a) != len(b) {
		panic("cmatrix: Dot length mismatch")
	}
	var s complex128
	for i := range a {
		s += cmplx.Conj(a[i]) * b[i]
	}
	return s
}

// Norm2 returns the squared Euclidean norm of v.
//
//flexcore:noalloc
func Norm2(v []complex128) float64 {
	var s float64
	for _, x := range v {
		s += real(x)*real(x) + imag(x)*imag(x)
	}
	return s
}

// Norm returns the Euclidean norm of v.
//
//flexcore:noalloc
func Norm(v []complex128) float64 { return math.Sqrt(Norm2(v)) }

// AXPY computes y ← y + a·x in place.
//
//flexcore:noalloc
func AXPY(a complex128, x, y []complex128) {
	if len(x) != len(y) {
		panic("cmatrix: AXPY length mismatch")
	}
	for i := range x {
		y[i] += a * x[i]
	}
}

// CopyVec returns a copy of v.
func CopyVec(v []complex128) []complex128 {
	c := make([]complex128, len(v))
	copy(c, v)
	return c
}

// SubVec returns a − b.
func SubVec(a, b []complex128) []complex128 {
	if len(a) != len(b) {
		panic("cmatrix: SubVec length mismatch")
	}
	c := make([]complex128, len(a))
	for i := range a {
		c[i] = a[i] - b[i]
	}
	return c
}
