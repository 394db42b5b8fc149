// Package hot is the noalloc fixture: //flexcore:noalloc-annotated
// functions seeded with one instance of every allocation class the
// analyzer recognizes, plus negative cases that must stay silent.
package hot

type point struct{ x, y float64 }

//flexcore:noalloc
func grow(xs []int, v int) []int {
	return append(xs, v) // want "append may grow its backing array"
}

//flexcore:noalloc
func scratch(n int) []float64 {
	return make([]float64, n) // want "make allocates"
}

//flexcore:noalloc
func fresh() *point {
	return new(point) // want "new allocates"
}

//flexcore:noalloc
func table() []int {
	return []int{1, 2, 3} // want "slice literal allocates"
}

//flexcore:noalloc
func index() map[string]int {
	return map[string]int{"a": 1} // want "map literal allocates"
}

//flexcore:noalloc
func ref() *point {
	return &point{x: 1} // want "composite literal allocates"
}

//flexcore:noalloc
func capture(start int) func() int {
	i := start
	return func() int { // want "closure captures i"
		i++
		return i
	}
}

//flexcore:noalloc
func spawn(f func()) {
	go f() // want "go statement allocates a goroutine" "goroutine spawns a function this package cannot see into"
}

//flexcore:noalloc
func join(a, b string) string {
	return a + b // want "string concatenation allocates"
}

//flexcore:noalloc
func stringify(bs []byte) string {
	return string(bs) // want "conversion to string allocates"
}

//flexcore:noalloc
func box(v int) any {
	return v // want "boxes into interface"
}

// Negative cases — all of these must produce no finding.

//flexcore:noalloc
func valueLiteral() point {
	return point{x: 1, y: 2} // value struct literal: stack, no allocation
}

//flexcore:noalloc
func staticClosure() func(int) int {
	return func(v int) int { return v + 1 } // captures nothing: static
}

//flexcore:noalloc
func constBox() any {
	return 42 // untyped constant boxes to static data
}

//flexcore:noalloc
func guarded(xs []int) int {
	if len(xs) == 0 {
		panic("hot: empty input") // constant string: no boxing allocation
	}
	return xs[0]
}

//flexcore:noalloc
func amortized(xs []int, v int) []int {
	return append(xs, v) //lint:ignore noalloc fixture: capacity reserved by the caller
}

// grows holds the reused buffers of the amortised-grow cases.
type grows struct {
	a, b []float64
	idx  []int
}

// The amortised grow: a make assigned directly in the then-branch of
// `if cap(x) < n` or `if len(x) < n` is legal, for every buffer the
// branch regrows. A make anywhere else in the same function is not.

//flexcore:noalloc
func (g *grows) ensure(n int) {
	if cap(g.a) < n {
		g.a = make([]float64, n)
		g.b = make([]float64, n)
	}
	if len(g.idx) < n {
		g.idx = make([]int, n)
	}
	g.a, g.b, g.idx = g.a[:n], g.b[:n], g.idx[:n]
}

//flexcore:noalloc
func (g *grows) regrow(n int) {
	if cap(g.a) < n {
		g.a = make([]float64, n)
	}
	g.b = make([]float64, n) // want "make allocates"
	if cap(g.idx) < n {
		for range 2 {
			g.idx = make([]int, n) // want "make allocates"
		}
	}
	if cap(g.idx) > n {
		g.idx = make([]int, n) // want "make allocates"
	}
}

// unannotated may allocate freely; the analyzer only checks opted-in
// functions.
func unannotated(n int) []int {
	out := make([]int, n)
	return append(out, n)
}
