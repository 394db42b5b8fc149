package cmatrix

import (
	"errors"
	"math/cmplx"
	"testing"
	"testing/quick"
)

func TestInverseReconstructsIdentity(t *testing.T) {
	rng := newRng(21)
	for _, n := range []int{1, 2, 4, 8, 12} {
		a := randMatrix(rng, n, n)
		inv, err := Inverse(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !a.Mul(inv).EqualApprox(Identity(n), 1e-9) {
			t.Fatalf("n=%d: A·A⁻¹ != I", n)
		}
		if !inv.Mul(a).EqualApprox(Identity(n), 1e-9) {
			t.Fatalf("n=%d: A⁻¹·A != I", n)
		}
	}
}

func TestInverseSingular(t *testing.T) {
	a := New(3, 3) // all zeros
	if _, err := Inverse(a); !errors.Is(err, ErrSingular) {
		t.Fatalf("expected ErrSingular, got %v", err)
	}
	// Rank-1 matrix.
	b := FromRows([][]complex128{{1, 2}, {2, 4}})
	if _, err := Inverse(b); !errors.Is(err, ErrSingular) {
		t.Fatalf("expected ErrSingular for rank-1, got %v", err)
	}
}

func TestSolveUpperTriangular(t *testing.T) {
	rng := newRng(22)
	h := randMatrix(rng, 6, 6)
	qr := QR(h)
	x := randMatrix(rng, 6, 1).Col(0)
	b := qr.R.MulVec(x)
	got, err := SolveUpperTriangular(qr.R, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if cmplx.Abs(got[i]-x[i]) > 1e-9 {
			t.Fatalf("solve mismatch at %d: %v vs %v", i, got[i], x[i])
		}
	}
}

func TestSolveUpperTriangularSingular(t *testing.T) {
	r := New(2, 2)
	r.Set(0, 0, 1)
	// r(1,1) = 0 → singular.
	if _, err := SolveUpperTriangular(r, []complex128{1, 1}); !errors.Is(err, ErrSingular) {
		t.Fatalf("expected ErrSingular, got %v", err)
	}
}

func TestMMSEFilterLimits(t *testing.T) {
	rng := newRng(24)
	h := randMatrix(rng, 8, 8)
	// As σ² → 0 the MMSE filter approaches the channel's left inverse.
	wm, err := MMSEFilter(h, 1e-12, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !wm.Mul(h).EqualApprox(Identity(8), 1e-5) {
		t.Fatal("MMSE(σ²→0)·H != I")
	}
	// With huge noise the filter shrinks toward zero.
	wh, err := MMSEFilter(h, 1e9, 1)
	if err != nil {
		t.Fatal(err)
	}
	if wh.MaxAbs() > 1e-6 {
		t.Fatalf("MMSE(σ²→∞) not shrinking: max %g", wh.MaxAbs())
	}
}

func TestMMSEHandlesSingularChannel(t *testing.T) {
	// MMSE regularisation must invert a singular channel's Gram matrix.
	h := FromRows([][]complex128{{1, 1}, {1, 1}})
	if _, err := MMSEFilter(h, 0.1, 1); err != nil {
		t.Fatalf("MMSE on singular channel failed: %v", err)
	}
}

func TestInverseQuickProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := newRng(seed)
		n := 1 + int(seed%8)
		a := randMatrix(r, n, n)
		inv, err := Inverse(a)
		if err != nil {
			return true // singular draws are legal
		}
		return a.Mul(inv).EqualApprox(Identity(n), 1e-7)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
