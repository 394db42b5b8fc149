package cmatrix

import (
	"math"
	"math/cmplx"
)

// QRResult holds a (possibly column-permuted) thin QR decomposition
// H·P = Q·R, where P permutes columns such that the k-th column of the
// factored matrix is column Perm[k] of the input. Q is Rows×Cols with
// orthonormal columns, R is Cols×Cols upper triangular with real,
// non-negative diagonal.
type QRResult struct {
	Q    *Matrix
	R    *Matrix
	Perm []int
}

// Unpermute scatters a detection result x (indexed by factored-column
// position) back to original column order.
func (qr *QRResult) Unpermute(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	for k, src := range qr.Perm {
		out[src] = x[k]
	}
	return out
}

// UnpermuteInts scatters an int-valued per-stream result back to original
// column order (used for symbol indices).
func (qr *QRResult) UnpermuteInts(x []int) []int {
	return qr.UnpermuteIntsInto(x, make([]int, len(x)))
}

// UnpermuteIntsInto is UnpermuteInts into a caller-owned buffer (len ≥
// len(Perm)); the scratch variant used by allocation-free hot paths.
//
//flexcore:noalloc
func (qr *QRResult) UnpermuteIntsInto(x, out []int) []int {
	for k, src := range qr.Perm {
		out[src] = x[k]
	}
	return out
}

// Ybar returns ȳ = Qᴴ·y, the rotated receive vector used by tree-search
// detectors.
func (qr *QRResult) Ybar(y []complex128) []complex128 { return qr.Q.MulHVec(y) }

// YbarInto computes ȳ = Qᴴ·y into a caller-owned buffer of length Q.Cols.
//
//flexcore:noalloc
func (qr *QRResult) YbarInto(y, out []complex128) []complex128 {
	return qr.Q.MulHVecInto(y, out)
}

// QR computes the thin Householder QR decomposition of h (Rows ≥ Cols)
// with identity permutation. Householder reflections give the best
// orthogonality of the three variants and are used wherever no column
// ordering is needed.
func QR(h *Matrix) *QRResult {
	m, n := h.Rows, h.Cols
	if m < n {
		panic("cmatrix: QR requires Rows ≥ Cols")
	}
	r := h.Copy()
	// Accumulate Q by applying the reflectors to an identity block.
	q := New(m, m)
	for i := 0; i < m; i++ {
		q.Data[i*m+i] = 1
	}
	v := make([]complex128, m)
	for k := 0; k < n; k++ {
		// Build the Householder vector for column k below the diagonal.
		var norm float64
		for i := k; i < m; i++ {
			x := r.At(i, k)
			norm += real(x)*real(x) + imag(x)*imag(x)
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			continue
		}
		akk := r.At(k, k)
		alpha := complex(-norm, 0)
		if akk != 0 {
			alpha = -complex(norm, 0) * akk / complex(cmplx.Abs(akk), 0)
		}
		var vnorm2 float64
		for i := k; i < m; i++ {
			v[i] = r.At(i, k)
		}
		v[k] -= alpha
		for i := k; i < m; i++ {
			vnorm2 += real(v[i])*real(v[i]) + imag(v[i])*imag(v[i])
		}
		if vnorm2 == 0 {
			continue
		}
		beta := complex(2/vnorm2, 0)
		// r ← (I − β v vᴴ) r for the trailing block.
		for j := k; j < n; j++ {
			var s complex128
			for i := k; i < m; i++ {
				s += cmplx.Conj(v[i]) * r.At(i, j)
			}
			s *= beta
			for i := k; i < m; i++ {
				r.Set(i, j, r.At(i, j)-s*v[i])
			}
		}
		// q ← q (I − β v vᴴ); accumulating on the right builds Q.
		for i := 0; i < m; i++ {
			var s complex128
			for j := k; j < m; j++ {
				s += q.At(i, j) * v[j]
			}
			s *= beta
			for j := k; j < m; j++ {
				q.Set(i, j, q.At(i, j)-s*cmplx.Conj(v[j]))
			}
		}
	}
	// Thin factors, with the R diagonal rotated to be real non-negative:
	// H = Q R = (Q D)(Dᴴ R) with D = diag(phase_j), so column j of Q picks
	// up phase_j and row j of R picks up its conjugate.
	phases := make([]complex128, n)
	for j := 0; j < n; j++ {
		d := r.At(j, j)
		phases[j] = 1
		if d != 0 {
			phases[j] = d / complex(cmplx.Abs(d), 0)
		}
	}
	qt := New(m, n)
	rt := New(n, n)
	for i := 0; i < n; i++ {
		rt.Set(i, i, complex(cmplx.Abs(r.At(i, i)), 0))
		for j := i + 1; j < n; j++ {
			rt.Set(i, j, cmplx.Conj(phases[i])*r.At(i, j))
		}
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			qt.Set(i, j, q.At(i, j)*phases[j])
		}
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	return &QRResult{Q: qt, R: rt, Perm: perm}
}

// Ordering selects the column-pivoting rule of SortedQR.
type Ordering int

const (
	// OrderNone performs no pivoting (plain modified Gram-Schmidt).
	OrderNone Ordering = iota
	// OrderSQRD is the sorted QR of Wübben et al. [13]: at every step the
	// remaining column with the smallest residual norm is factored next.
	// Because tree-search and SIC detection decide the *last* factored
	// column first, this leaves the strongest streams for the levels that
	// are detected first.
	OrderSQRD
	// OrderFCSD is the Barbero–Thompson FCSD ordering [4] parameterised by
	// the number of fully-expanded levels L (see SortedQRFCSD): the L
	// streams with the worst residual norms are pushed to the levels the
	// FCSD fully expands, and the rest are ordered as in OrderSQRD.
	OrderFCSD
)

// SortedQR computes a thin QR decomposition with the given column
// ordering using modified Gram-Schmidt with column pivoting.
// For OrderFCSD use SortedQRFCSD, which takes the expansion depth.
func SortedQR(h *Matrix, ord Ordering) *QRResult {
	switch ord {
	case OrderNone:
		return sortedQR(h, func(step, n int) pickRule { return pickFirst })
	case OrderSQRD:
		return sortedQR(h, func(step, n int) pickRule { return pickMin })
	case OrderFCSD:
		panic("cmatrix: use SortedQRFCSD for the FCSD ordering")
	default:
		panic("cmatrix: unknown ordering")
	}
}

// SortedQRFCSD computes the FCSD ordering of Barbero–Thompson [4] for a
// fixed-complexity detector that fully expands the top fullExpand levels:
// the weakest streams are deferred to the last factored columns (the
// levels detected first and fully expanded), removing their influence on
// the error rate; the remaining columns follow the SQRD rule.
func SortedQRFCSD(h *Matrix, fullExpand int) *QRResult {
	n := h.Cols
	if fullExpand < 0 || fullExpand > n {
		panic("cmatrix: SortedQRFCSD expansion depth out of range")
	}
	return sortedQR(h, func(step, cols int) pickRule {
		if step < cols-fullExpand {
			// Early positions are detected last: give them the strongest
			// of the remaining columns so the weak ones land in the
			// fully-expanded levels.
			return pickMax
		}
		return pickMin
	})
}

type pickRule int

const (
	pickFirst pickRule = iota
	pickMin
	pickMax
)

func sortedQR(h *Matrix, ruleAt func(step, cols int) pickRule) *QRResult {
	var ws QRWorkspace
	return ws.sortedQRInto(h, ruleAt, &QRResult{})
}

// QRWorkspace holds the scratch buffers of a sorted QR decomposition so
// repeated decompositions (one per OFDM subcarrier per packet at the
// channel rate) are allocation-free in steady state. A workspace is not
// safe for concurrent use; keep one per goroutine. The zero value is
// ready to use.
type QRWorkspace struct {
	cols    [][]complex128
	colData []complex128
	norms   []float64
	qi      []complex128
}

// SortedQRInto is SortedQR writing the factors into a caller-owned
// QRResult whose buffers are reused when the dimensions match (grown
// otherwise), using the workspace's scratch. It returns out.
//
//flexcore:noalloc
func (ws *QRWorkspace) SortedQRInto(h *Matrix, ord Ordering, out *QRResult) *QRResult {
	switch ord {
	case OrderNone:
		return ws.sortedQRInto(h, func(step, n int) pickRule { return pickFirst }, out)
	case OrderSQRD:
		return ws.sortedQRInto(h, func(step, n int) pickRule { return pickMin }, out)
	case OrderFCSD:
		panic("cmatrix: use SortedQRFCSD for the FCSD ordering")
	default:
		panic("cmatrix: unknown ordering")
	}
}

// ensure grows the workspace scratch to an m×n decomposition.
func (ws *QRWorkspace) ensure(m, n int) {
	if cap(ws.colData) < m*n {
		ws.colData = make([]complex128, m*n)
		ws.cols = make([][]complex128, n)
		ws.norms = make([]float64, n)
		ws.qi = make([]complex128, m)
	}
	ws.colData = ws.colData[:m*n]
	if cap(ws.cols) < n {
		ws.cols = make([][]complex128, n)
		ws.norms = make([]float64, n)
	}
	if cap(ws.qi) < m {
		ws.qi = make([]complex128, m)
	}
	ws.cols = ws.cols[:n]
	ws.norms = ws.norms[:n]
	ws.qi = ws.qi[:m]
}

// ensureResult points out's factors at reusable buffers of the right
// shape, sized by capacity so a result alternating between geometries
// regrows only past its high-water mark. R is zeroed (its strict lower
// triangle must read as zero for consumers that scan the full matrix);
// Q is overwritten whole by the factorisation.
func ensureResult(out *QRResult, m, n int) {
	out.Q = Reshape(out.Q, m, n)
	out.R = Reshape(out.R, n, n)
	clear(out.R.Data)
	if cap(out.Perm) < n {
		out.Perm = make([]int, n)
	}
	out.Perm = out.Perm[:n]
}

// sortedQRInto is the shared modified-Gram-Schmidt kernel behind the
// SortedQR entry points: workspace-pooled, allocation-free once the
// workspace and result have their steady-state shape.
//
//flexcore:noalloc
func (ws *QRWorkspace) sortedQRInto(h *Matrix, ruleAt func(step, cols int) pickRule, out *QRResult) *QRResult {
	m, n := h.Rows, h.Cols
	if m < n {
		panic("cmatrix: SortedQR requires Rows ≥ Cols")
	}
	ws.ensure(m, n)
	ensureResult(out, m, n)
	// Working copy of the columns and their residual squared norms.
	cols := ws.cols
	norms := ws.norms
	for j := 0; j < n; j++ {
		c := ws.colData[j*m : (j+1)*m]
		for t := 0; t < m; t++ {
			c[t] = h.Data[t*n+j]
		}
		cols[j] = c
		norms[j] = Norm2(c)
	}
	perm := out.Perm
	for i := range perm {
		perm[i] = i
	}
	q, r := out.Q, out.R
	for i := 0; i < n; i++ {
		// Pivot selection over the not-yet-factored columns.
		k := i
		switch ruleAt(i, n) {
		case pickMin:
			for j := i + 1; j < n; j++ {
				if norms[j] < norms[k] {
					k = j
				}
			}
		case pickMax:
			for j := i + 1; j < n; j++ {
				if norms[j] > norms[k] {
					k = j
				}
			}
		}
		if k != i {
			cols[i], cols[k] = cols[k], cols[i]
			norms[i], norms[k] = norms[k], norms[i]
			perm[i], perm[k] = perm[k], perm[i]
			// Already-computed R entries travel with their columns.
			for row := 0; row < i; row++ {
				r.Data[row*n+i], r.Data[row*n+k] = r.Data[row*n+k], r.Data[row*n+i]
			}
		}
		// Re-computing the norm avoids drift from the running updates.
		rii := Norm(cols[i])
		r.Set(i, i, complex(rii, 0))
		qi := ws.qi
		if rii > 0 {
			inv := complex(1/rii, 0)
			for t := 0; t < m; t++ {
				qi[t] = cols[i][t] * inv
			}
		} else {
			clear(qi)
		}
		q.SetCol(i, qi)
		for j := i + 1; j < n; j++ {
			rij := Dot(qi, cols[j])
			r.Set(i, j, rij)
			AXPY(-rij, qi, cols[j])
			norms[j] -= real(rij)*real(rij) + imag(rij)*imag(rij)
			if norms[j] < 0 {
				norms[j] = 0
			}
		}
	}
	return out
}
