package kernel32

import (
	"math"
	"testing"

	"flexcore/internal/cmatrix"
	"flexcore/internal/constellation"
)

// fuzzBytes deals a fuzz input out byte by byte, zeros once it runs dry.
type fuzzBytes []byte

func (b *fuzzBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return v
}

// FuzzDescend decodes bytes into a whole descent — constellation, tree
// shape, deactivation mode, an arbitrary rank plane, an upper-triangular
// R with a positive diagonal and a received vector, all on coarse dyadic
// grids so no distance can overflow — and demands what the properties in
// descend_test.go demand of seeded draws: the argmin and every lane on
// its own equal the per-lane reference's, a pruned lane is worse than
// the minimum, a descent of [0, P) slices no more than the trie and only
// under parents lane 0's distance keeps live (checkWork), every distance
// is finite or +Inf and the clamped mode's returned one is finite. The
// same holds for a prefix cut of the plan — its first k lanes, copied as
// a capped reuse hit copies them — over ranges that start at lane 0 and
// past it.
func FuzzDescend(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		m := []int{4, 16, 64}[in.next()%3]
		n := 1 + int(in.next()%6)
		P := 1 + int(in.next()%24)
		strict := in.next()&1 == 1
		maxRank := 1 + int(in.next())%m

		cons := constellation.MustNew(m)
		sl := NewSlicer32(cons)
		var pr Prep
		var s Scratch
		r := cmatrix.New(n, n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				r.Set(i, j, complex(float64(int8(in.next()))/64, float64(int8(in.next()))/64))
			}
			r.Set(i, i, complex(0.25+float64(in.next())/128, 0))
		}
		pr.SetChannel(r, 1/cons.Scale())
		ranks := pr.EnsureRanks(P)
		for i := range ranks {
			ranks[i] = int16(1 + int(in.next())%maxRank)
		}
		s.Ensure(n, P)
		for i := range s.yb {
			s.yb[i] = c32{float32(int8(in.next())) / 16, float32(int8(in.next())) / 16}
		}

		k := 1 + int(in.next())%P
		lo := int(in.next()) % k
		checkAgainstReference(t, &pr, sl, &s, P, ranks, strict, [][2]int{{0, P}, {P / 2, P}, {lo, P}})

		// The prefix cut: the first k lanes of the compiled plan, against
		// the reference for their ranks alone.
		var cut Plan
		cut.CopyPrefix(pr.Plan, k)
		if err := cut.Check(); err != nil {
			t.Fatalf("prefix %d of %d lanes: %v", k, P, err)
		}
		sub := make([]int16, n*k)
		for i := 0; i < n; i++ {
			copy(sub[i*k:(i+1)*k], ranks[i*P:i*P+k])
		}
		full := pr.Plan
		pr.Plan = &cut
		checkAgainstReference(t, &pr, sl, &s, k, sub, strict, [][2]int{{0, k}, {lo, k}, {k / 2, k}})
		pr.Plan = full

		lane, ped := Descend(&pr, sl, &s, 0, P, strict)
		if !strict && (lane < 0 || math.IsInf(float64(ped), 1)) {
			t.Fatalf("clamped descent returned lane %d distance %v", lane, ped)
		}
		for p, d := range s.Ped[:P] {
			if math.IsNaN(float64(d)) || math.IsInf(float64(d), -1) {
				t.Fatalf("lane %d: distance %v (strict=%v)", p, d, strict)
			}
		}
	})
}
