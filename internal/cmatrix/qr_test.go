package cmatrix

import (
	"math"
	"testing"
	"testing/quick"
)

// checkQR verifies the defining invariants of a (permuted) QR result.
func checkQR(t *testing.T, h *Matrix, qr *QRResult, tol float64) {
	t.Helper()
	n := h.Cols
	// Perm must be a permutation of 0..n-1.
	seen := make([]bool, n)
	for _, p := range qr.Perm {
		if p < 0 || p >= n || seen[p] {
			t.Fatalf("invalid permutation %v", qr.Perm)
		}
		seen[p] = true
	}
	// Reconstruction: H·P == Q·R.
	hp := h.PermuteCols(qr.Perm)
	if got := qr.Q.Mul(qr.R); !got.EqualApprox(hp, tol) {
		t.Fatalf("Q·R != H·P (max err %g)", got.Sub(hp).MaxAbs())
	}
	// Orthonormal columns.
	qhq := qr.Q.H().Mul(qr.Q)
	if !qhq.EqualApprox(Identity(n), tol) {
		t.Fatalf("QᴴQ != I (max err %g)", qhq.Sub(Identity(n)).MaxAbs())
	}
	// Upper triangular with real, non-negative diagonal.
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			if v := qr.R.At(i, j); v != 0 {
				t.Fatalf("R(%d,%d) = %v below diagonal", i, j, v)
			}
		}
		d := qr.R.At(i, i)
		if imag(d) != 0 || real(d) < 0 {
			t.Fatalf("R(%d,%d) = %v not real non-negative", i, i, d)
		}
	}
}

func TestHouseholderQRInvariants(t *testing.T) {
	rng := newRng(11)
	for _, dims := range [][2]int{{2, 2}, {4, 4}, {8, 8}, {12, 12}, {10, 6}} {
		h := randMatrix(rng, dims[0], dims[1])
		checkQR(t, h, QR(h), 1e-10)
	}
}

func TestSortedQRInvariants(t *testing.T) {
	rng := newRng(12)
	for _, dims := range [][2]int{{4, 4}, {8, 8}, {12, 12}, {12, 8}} {
		h := randMatrix(rng, dims[0], dims[1])
		checkQR(t, h, SortedQR(h, OrderNone), 1e-9)
		checkQR(t, h, SortedQR(h, OrderSQRD), 1e-9)
		for l := 0; l <= dims[1]; l += 2 {
			checkQR(t, h, SortedQRFCSD(h, l), 1e-9)
		}
	}
}

func TestSQRDImprovesWorstFirstLevel(t *testing.T) {
	// SQRD should not make the last diagonal entry (the level detected
	// first) smaller than plain QR does, on average.
	rng := newRng(13)
	var plain, sorted float64
	const trials = 200
	for i := 0; i < trials; i++ {
		h := randMatrix(rng, 8, 8)
		q1 := QR(h)
		q2 := SortedQR(h, OrderSQRD)
		n := h.Cols
		plain += real(q1.R.At(n-1, n-1))
		sorted += real(q2.R.At(n-1, n-1))
	}
	if sorted <= plain {
		t.Fatalf("SQRD last-level gain missing: sorted %g <= plain %g", sorted, plain)
	}
}

func TestFCSDOrderingPushesWeakColumnsLast(t *testing.T) {
	// Build a matrix with one clearly weak column; with L=1 the FCSD
	// ordering must place it at the last factored position.
	rng := newRng(14)
	for trial := 0; trial < 50; trial++ {
		h := randMatrix(rng, 6, 6)
		weak := rng.IntN(6)
		for i := 0; i < h.Rows; i++ {
			h.Set(i, weak, h.At(i, weak)*0.01)
		}
		qr := SortedQRFCSD(h, 1)
		if qr.Perm[len(qr.Perm)-1] != weak {
			t.Fatalf("trial %d: weak column %d not last in perm %v", trial, weak, qr.Perm)
		}
	}
}

func TestUnpermuteRoundTrip(t *testing.T) {
	rng := newRng(15)
	h := randMatrix(rng, 8, 8)
	qr := SortedQR(h, OrderSQRD)
	// Detection works on permuted streams: stream k of the factored system
	// is original stream Perm[k]; UnpermuteIntsInto must invert the gather.
	xi := []int{7, 6, 5, 4, 3, 2, 1, 0}
	pi := make([]int, 8)
	for k, src := range qr.Perm {
		pi[k] = xi[src]
	}
	back := qr.UnpermuteIntsInto(pi, make([]int, 8))
	backInts := qr.UnpermuteInts(pi)
	for i := range xi {
		if back[i] != xi[i] || backInts[i] != xi[i] {
			t.Fatalf("Unpermute round trip failed at %d", i)
		}
	}
}

func TestYbarPreservesDistances(t *testing.T) {
	// For square H, ||y − Hs||² == ||ȳ − R·s_perm||² because Q is unitary.
	rng := newRng(16)
	h := randMatrix(rng, 6, 6)
	qr := SortedQR(h, OrderSQRD)
	s := randMatrix(rng, 6, 1).Col(0)
	y := h.MulVec(s)
	for i := range y {
		y[i] += complex(rng.NormFloat64(), rng.NormFloat64()) * 0.1
	}
	direct := Norm2(SubVec(y, h.MulVec(s)))
	sp := make([]complex128, 6)
	for k, src := range qr.Perm {
		sp[k] = s[src]
	}
	viaR := Norm2(SubVec(qr.Ybar(y), qr.R.MulVec(sp)))
	if math.Abs(direct-viaR) > 1e-9*(1+direct) {
		t.Fatalf("distance mismatch: %g vs %g", direct, viaR)
	}
}

func TestQRQuickProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := newRng(seed)
		m := 2 + int(seed%7)
		h := randMatrix(r, m+int(seed%3), m)
		qr := QR(h)
		hp := h.PermuteCols(qr.Perm)
		return qr.Q.Mul(qr.R).EqualApprox(hp, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQRRankDeficientDoesNotPanic(t *testing.T) {
	// A rank-deficient matrix must still produce a valid factorization
	// (R may have zero diagonal entries).
	h := New(4, 4)
	for i := 0; i < 4; i++ {
		h.Set(i, 0, complex(float64(i+1), 0))
		h.Set(i, 1, complex(2*float64(i+1), 0)) // multiple of column 0
	}
	qr := QR(h)
	hp := h.PermuteCols(qr.Perm)
	if !qr.Q.Mul(qr.R).EqualApprox(hp, 1e-9) {
		t.Fatal("rank-deficient QR does not reconstruct")
	}
	qrs := SortedQR(h, OrderSQRD)
	hps := h.PermuteCols(qrs.Perm)
	if !qrs.Q.Mul(qrs.R).EqualApprox(hps, 1e-9) {
		t.Fatal("rank-deficient SortedQR does not reconstruct")
	}
}

func BenchmarkQR12x12(b *testing.B) {
	rng := newRng(18)
	h := randMatrix(rng, 12, 12)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		QR(h)
	}
}

func BenchmarkSortedQR12x12(b *testing.B) {
	rng := newRng(19)
	h := randMatrix(rng, 12, 12)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SortedQR(h, OrderSQRD)
	}
}
