// Package quiet has no finding, only a stale ignore: flexlint exits 0
// on it, and flexlint -suppressions exits 1.
package quiet

// Scale multiplies; nothing here is compared exactly.
func Scale(a, b float64) float64 {
	return a * b //lint:ignore floatcmp fixture: a stale ignore, no float compare left on this line
}
