package conformance

import (
	"testing"

	"flexcore/internal/core"
)

// TestPathReuseThresholdZeroNeverChangesOutput is the conformance
// invariant of the coherence cache: with Options.PathReuse enabled the
// cache fires only on a bit-identical level key, so every detection
// decision over the seeded ML ensembles must
// be bit-identical to the cache-off detector — including after repeated
// Prepares of the same channel, where the cache actually hits.
func TestPathReuseThresholdZeroNeverChangesOutput(t *testing.T) {
	forEachMLCase(t, func(t *testing.T, c *Case) {
		plain := flexAt(t, c, core.Options{NPE: 16})
		cached := flexAt(t, c, core.Options{NPE: 16, PathReuse: true})
		// Re-prepare the identical channel so the second round runs on a
		// cache hit.
		for round := 0; round < 2; round++ {
			if round > 0 {
				if err := cached.Prepare(c.H, c.Sigma2); err != nil {
					t.Fatal(err)
				}
			}
			for v := range c.Y {
				want := plain.Detect(c.Y[v])
				got := cached.Detect(c.Y[v])
				if !equalIntSlices(got, want) {
					t.Fatalf("seed %d vector %d round %d: reuse-enabled %v, plain %v",
						c.Seed, v, round, got, want)
				}
			}
		}
		if pp := cached.PreprocessStats(); pp.CacheHits != 1 || pp.CacheMisses != 1 {
			t.Fatalf("seed %d: hits=%d misses=%d, want 1/1", c.Seed, pp.CacheHits, pp.CacheMisses)
		}
	})
}
