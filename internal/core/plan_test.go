package core

import (
	"testing"

	"flexcore/internal/channel"
	"flexcore/internal/constellation"
	"flexcore/internal/kernel32"
)

// TestPlanSharesPrefixes pins the property the SoA descent's speed rests
// on: the best-first path set is so redundant that its prefix trie has
// far fewer nodes than paths × levels (averaged over seeded Rayleigh
// channels; a single draw varies by ±10 %). A finder change that destroys the
// sharing fails here, not in a benchmark. The same loop cross-checks the
// two ways a plan gets built: the finder's incremental link must produce
// exactly the trie the generic rank-plane compiler finds, and so must
// every lane prefix of it (kernel32's own tests compare node for node).
func TestPlanSharesPrefixes(t *testing.T) {
	const channels = 40
	for _, tc := range []struct {
		name         string
		nt, qam, npe int
		snrDB, share float64
	}{
		{"12x12-64QAM-128", 12, 64, 128, 16, 0.65},
		{"4x4-16QAM-512", 4, 16, 512, 14, 0.45},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cons := constellation.MustNew(tc.qam)
			sigma2 := channel.Sigma2FromSNRdB(tc.snrDB, 1)
			rng := newRng(1400)
			fc := New(cons, Options{NPE: tc.npe, Backend: BackendSoA32})
			var comp kernel32.Compiler
			var generic, prefix kernel32.Plan
			total, flat := 0, 0 // distinct nodes, paths × levels, over all channels
			for ch := 0; ch < channels; ch++ {
				if err := fc.Prepare(channel.Rayleigh(rng, tc.nt, tc.nt), sigma2); err != nil {
					t.Fatal(err)
				}
				paths := fc.Paths()
				P := len(paths)
				nodes := fc.soa.prep.Plan.Nodes()
				total += nodes
				flat += tc.nt * P
				ranks := comp.Ranks(tc.nt, P)
				for p := range paths {
					for i, r := range paths[p].Ranks {
						ranks[i*P+p] = int16(r)
					}
				}
				comp.Compile(&generic)
				if generic.Nodes() != nodes {
					t.Errorf("channel %d: finder-built plan has %d nodes, generic compile of the same paths %d", ch, nodes, generic.Nodes())
				}
				// A path cap takes a prefix of the finder's plan: it must be
				// the trie of the first k paths, no node more.
				for _, k := range []int{1, P / 3, P - 1} {
					ranks := comp.Ranks(tc.nt, k)
					for p := 0; p < k; p++ {
						for i, r := range paths[p].Ranks {
							ranks[i*k+p] = int16(r)
						}
					}
					comp.Compile(&generic)
					prefix.CopyPrefix(fc.soa.prep.Plan, k)
					if prefix.Nodes() != generic.Nodes() {
						t.Errorf("channel %d: %d-lane prefix of the finder-built plan has %d nodes, the first %d paths compile to %d", ch, k, prefix.Nodes(), k, generic.Nodes())
					}
				}
			}
			if got := float64(total) / float64(flat); got > tc.share {
				t.Errorf("%d distinct nodes of %d path-levels over %d channels: share %.3f, want ≤ %.2f", total, flat, channels, got, tc.share)
			} else {
				t.Logf("distinct-node share %.3f (limit %.2f)", got, tc.share)
			}
		})
	}
}
