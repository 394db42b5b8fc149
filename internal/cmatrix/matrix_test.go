package cmatrix

import (
	"math"
	"math/cmplx"
	"math/rand/v2"
	"testing"
)

// randMatrix returns an m×n matrix with standard complex Gaussian entries.
func randMatrix(rng *rand.Rand, m, n int) *Matrix {
	a := New(m, n)
	for i := range a.Data {
		a.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64()) * complex(math.Sqrt(0.5), 0)
	}
	return a
}

func newRng(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)) }

func TestIdentityMul(t *testing.T) {
	rng := newRng(1)
	a := randMatrix(rng, 4, 4)
	if got := Identity(4).Mul(a); !got.EqualApprox(a, 1e-12) {
		t.Fatalf("I·A != A")
	}
	if got := a.Mul(Identity(4)); !got.EqualApprox(a, 1e-12) {
		t.Fatalf("A·I != A")
	}
}

func TestMulVecMatchesMul(t *testing.T) {
	rng := newRng(2)
	a := randMatrix(rng, 5, 3)
	x := randMatrix(rng, 3, 1)
	want := a.Mul(x)
	got := a.MulVec(x.Col(0))
	for i := range got {
		if cmplx.Abs(got[i]-want.At(i, 0)) > 1e-12 {
			t.Fatalf("MulVec mismatch at %d: %v vs %v", i, got[i], want.At(i, 0))
		}
	}
}

func TestHermitianInvolution(t *testing.T) {
	rng := newRng(3)
	a := randMatrix(rng, 4, 6)
	if !a.H().H().EqualApprox(a, 0) {
		t.Fatal("(Aᴴ)ᴴ != A")
	}
}

func TestMulHVecMatchesExplicitTranspose(t *testing.T) {
	rng := newRng(4)
	a := randMatrix(rng, 6, 4)
	y := randMatrix(rng, 6, 1).Col(0)
	want := a.H().MulVec(y)
	got := a.MulHVec(y)
	for i := range got {
		if cmplx.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("MulHVec mismatch at %d", i)
		}
	}
}

func TestPermuteCols(t *testing.T) {
	a := FromRows([][]complex128{{1, 2, 3}, {4, 5, 6}})
	p := a.PermuteCols([]int{2, 0, 1})
	want := FromRows([][]complex128{{3, 1, 2}, {6, 4, 5}})
	if !p.EqualApprox(want, 0) {
		t.Fatalf("PermuteCols wrong:\n%v", p)
	}
}

func TestAddSubScale(t *testing.T) {
	rng := newRng(5)
	a := randMatrix(rng, 3, 3)
	b := randMatrix(rng, 3, 3)
	if !a.Add(b).Sub(b).EqualApprox(a, 1e-12) {
		t.Fatal("A+B-B != A")
	}
	if !a.Scale(2).Sub(a).EqualApprox(a, 1e-12) {
		t.Fatal("2A-A != A")
	}
}

func TestDotNormConsistency(t *testing.T) {
	rng := newRng(6)
	v := randMatrix(rng, 7, 1).Col(0)
	if math.Abs(real(Dot(v, v))-Norm2(v)) > 1e-12 {
		t.Fatal("⟨v,v⟩ != ||v||²")
	}
	if math.Abs(imag(Dot(v, v))) > 1e-12 {
		t.Fatal("⟨v,v⟩ not real")
	}
}

func TestAXPYSubVec(t *testing.T) {
	rng := newRng(7)
	x := randMatrix(rng, 5, 1).Col(0)
	y := append([]complex128(nil), x...)
	AXPY(-1, x, y)
	if Norm(y) > 1e-12 {
		t.Fatal("y - y != 0")
	}
	d := SubVec(x, x)
	if Norm(d) != 0 {
		t.Fatal("x - x != 0")
	}
}

func TestColSetColRoundTrip(t *testing.T) {
	rng := newRng(8)
	a := randMatrix(rng, 4, 4)
	c := a.Col(2)
	b := a.Copy()
	b.SetCol(2, c)
	if !a.EqualApprox(b, 0) {
		t.Fatal("SetCol(Col) changed the matrix")
	}
}

func TestFrobeniusNorm(t *testing.T) {
	a := FromRows([][]complex128{{3, 0}, {0, 4i}})
	if math.Abs(a.FrobeniusNorm()-5) > 1e-12 {
		t.Fatalf("Frobenius norm = %v, want 5", a.FrobeniusNorm())
	}
}

func TestShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	a := New(2, 3)
	b := New(2, 3)
	a.Mul(b)
}
