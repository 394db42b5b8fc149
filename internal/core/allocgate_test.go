package core

import (
	"testing"

	"flexcore/internal/cmatrix"
	"flexcore/internal/constellation"
)

// Allocation gates for the channel-rate entry points, complementing the
// symbol-rate gates in batch_test.go (Detect/DetectBatch) and the
// cached-re-Prepare gate in frame_test.go. Together with the static
// noalloc analyzer (cmd/flexlint) they pin the repo's zero-allocation
// contract from both sides: the analyzer proves the annotated kernels
// contain no allocation sites, these gates prove the grow-on-shape-
// change helpers the analyzer deliberately exempts really do stop
// allocating once the shapes settle.

// TestPrepareSteadyStateAllocFree gates the fresh (cache-disabled)
// scalar Prepare: after one warm-up on the target geometry, re-preparing
// — full sorted QR, model build and pre-processing tree search — must
// run entirely out of the detector-owned arenas.
func TestPrepareSteadyStateAllocFree(t *testing.T) {
	cons := constellation.MustNew(16)
	const nr, nt = 8, 4
	hs := frameChannels(401, nr, nt, 2)
	fc := New(cons, Options{NPE: 32})
	for _, h := range hs {
		if err := fc.Prepare(h, 0.05); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(50, func() {
		// Alternate channels so no coherence shortcut can kick in even
		// if a future change enables one by default.
		i++
		if err := fc.Prepare(hs[i%2], 0.05); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("fresh Prepare: %.1f allocs/op in steady state, want 0", allocs)
	}
}

// TestPrepareAllSteadyStateAllocFree gates the frame pipeline with and
// without PathReuse against a ReuseState (alternating frames: every
// subcarrier misses and re-bases its base): once a frame of the target
// shape has been prepared, re-preparing a same-shape frame must not
// allocate — the QR workspace, the per-slot arenas and the bases run
// from retained storage.
func TestPrepareAllSteadyStateAllocFree(t *testing.T) {
	cons := constellation.MustNew(16)
	const nr, nt, nSC = 6, 4, 12
	fa := frameChannels(402, nr, nt, nSC)
	fb := frameChannels(403, nr, nt, nSC)
	for _, tc := range []struct {
		name  string
		reuse bool
	}{
		{"seq", false},
		{"seq-reuse", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fc := New(cons, Options{NPE: 32, PathReuse: tc.reuse})
			var st ReuseState
			fc.SetReuseState(&st)
			if err := fc.PrepareAll(fa, 0.05); err != nil {
				t.Fatal(err)
			}
			if err := fc.PrepareAll(fb, 0.05); err != nil {
				t.Fatal(err)
			}
			i := 0
			allocs := testing.AllocsPerRun(20, func() {
				i++
				hs := fa
				if i%2 == 0 {
					hs = fb
				}
				if err := fc.PrepareAll(hs, 0.05); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("PrepareAll %s: %.1f allocs/op in steady state, want 0", tc.name, allocs)
			}
		})
	}
}

// TestSelectAllocFree pins Select's documented O(1)-pointer-swap
// contract: activating any prepared subcarrier allocates nothing, from
// the very first call.
func TestSelectAllocFree(t *testing.T) {
	cons := constellation.MustNew(16)
	hs := frameChannels(404, 6, 4, 8)
	y := []complex128{0.3, -0.2i, 0.1 + 0.4i, -0.5, 0.25i, 0.6 - 0.1i}
	for _, bb := range benchBackends {
		t.Run(bb.name, func(t *testing.T) {
			fc := New(cons, Options{NPE: 32, Backend: bb.backend})
			if err := fc.PrepareAll(hs, 0.05); err != nil {
				t.Fatal(err)
			}
			k := 0
			allocs := testing.AllocsPerRun(50, func() {
				k = (k + 1) % len(hs)
				if err := fc.Select(k); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("Select: %.1f allocs/op, want 0", allocs)
			}
			// Select + Detect: on the SoA backend the first Detect after a
			// Select converts the channel planes and walks the slot's
			// ready-made plan; once the scratch has seen the largest
			// plan of the frame neither step allocates.
			for k := range hs {
				fc.Select(k)
				fc.Detect(y)
			}
			allocs = testing.AllocsPerRun(50, func() {
				k = (k + 1) % len(hs)
				fc.Select(k)
				fc.Detect(y)
			})
			if allocs != 0 {
				t.Errorf("Select+Detect: %.1f allocs/op in steady state, want 0", allocs)
			}
		})
	}
}

// TestDetectSoftSteadyStateAllocFree gates soft output: once the soft
// arenas have seen the geometry, DetectSoft — including the
// all-deactivated fallback — runs entirely out of detector-owned
// storage on both backends.
func TestDetectSoftSteadyStateAllocFree(t *testing.T) {
	cons := constellation.MustNew(16)
	hs := frameChannels(410, 6, 4, 2)
	y := []complex128{0.3, -0.2i, 0.1 + 0.4i, -0.5, 0.25i, 0.6 - 0.1i}
	far := []complex128{90, -90i, 90 + 90i, -90, 90i, 90 - 90i}
	for _, bb := range benchBackends {
		fc := New(cons, Options{NPE: 32, StrictDeactivation: true, Backend: bb.backend})
		if err := fc.PrepareAll(hs, 0.05); err != nil {
			t.Fatal(err)
		}
		fc.Select(0)
		fc.DetectSoft(y, 0.05)
		i := 0
		allocs := testing.AllocsPerRun(50, func() {
			i++
			fc.Select(i % 2)
			fc.DetectSoft(y, 0.05)
			fc.DetectSoft(far, 0.05)
		})
		if allocs != 0 {
			t.Errorf("%s DetectSoft: %.1f allocs/op in steady state, want 0", bb.name, allocs)
		}
		if fc.FallbackDetections() == 0 {
			t.Errorf("%s: the far vector never fell back", bb.name)
		}
	}
}

// TestPrepareAllRegrowThenSettle checks the amortization story end to
// end: growing the frame (more subcarriers than ever seen) may allocate,
// but the very next same-shape call is allocation-free again.
func TestPrepareAllRegrowThenSettle(t *testing.T) {
	cons := constellation.MustNew(16)
	small := frameChannels(405, 6, 4, 4)
	big := frameChannels(406, 6, 4, 16)
	fc := New(cons, Options{NPE: 32})
	if err := fc.PrepareAll(small, 0.05); err != nil {
		t.Fatal(err)
	}
	if err := fc.PrepareAll(big, 0.05); err != nil { // regrow
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := fc.PrepareAll(big, 0.05); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("PrepareAll after regrow: %.1f allocs/op, want 0", allocs)
	}
	// Shrinking back reuses the big arenas.
	allocs = testing.AllocsPerRun(20, func() {
		if err := fc.PrepareAll(small, 0.05); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("PrepareAll after shrink: %.1f allocs/op, want 0", allocs)
	}

	// 48 → 8 → 64 subcarriers: the regrow happens while the frame is
	// re-sliced to 8, and must still carry over the arenas slots 8–47
	// grew for the 48-subcarrier frame.
	wide := frameChannels(409, 6, 4, 64)
	fc = New(cons, Options{NPE: 32})
	if err := fc.PrepareAll(wide[:48], 0.05); err != nil {
		t.Fatal(err)
	}
	arena := make([]*float64, 48)
	for k := range arena {
		arena[k] = &fc.frame[k].own.logP[0]
	}
	for _, n := range []int{8, 64} {
		if err := fc.PrepareAll(wide[:n], 0.05); err != nil {
			t.Fatal(err)
		}
	}
	for k := range arena {
		if &fc.frame[k].own.logP[0] != arena[k] {
			t.Fatalf("slot %d lost its grown arena in the 48 → 8 → 64 regrow", k)
		}
	}
}

// TestReuseStateSteadyStateAllocFree gates the cross-frame reuse path:
// once a user's ReuseState has been based on a frame, both re-sent
// frames (every subcarrier an external hit — the static-channel serve
// steady state) and changed frames (every subcarrier a miss + re-base)
// run allocation-free from retained arenas.
func TestReuseStateSteadyStateAllocFree(t *testing.T) {
	cons := constellation.MustNew(16)
	const nr, nt, nSC = 6, 4, 8
	fa := frameChannels(407, nr, nt, nSC)
	fb := frameChannels(408, nr, nt, nSC)
	for _, bb := range benchBackends {
		t.Run(bb.name, func(t *testing.T) {
			fc := New(cons, Options{NPE: 32, PathReuse: true, Backend: bb.backend})
			var st ReuseState
			fc.SetReuseState(&st)
			for _, hs := range [][]*cmatrix.Matrix{fa, fa, fb, fb} { // warm both hit and re-base paths
				if err := fc.PrepareAll(hs, 0.05); err != nil {
					t.Fatal(err)
				}
			}
			// All-hit frame: every slot selects its base's paths — and, on
			// the SoA backend, the base's descent plan — in place.
			allocs := testing.AllocsPerRun(20, func() {
				if err := fc.PrepareAll(fb, 0.05); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("PrepareAll with all external hits: %.1f allocs/op, want 0", allocs)
			}
			i := 0
			allocs = testing.AllocsPerRun(20, func() {
				i++
				hs := fa
				if i%2 == 0 {
					hs = fb
				}
				if err := fc.PrepareAll(hs, 0.05); err != nil { // all-miss frame: re-base
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("PrepareAll with external re-base: %.1f allocs/op, want 0", allocs)
			}
		})
	}
}

// TestPathCapSteadyStateAllocFree gates the capped paths: alternating
// full and capped frames over a user's ReuseState — prefix copies on a
// static channel, capped searches and re-bases on a changing one — and
// scalar Prepare's prefix copies all run from retained arenas.
func TestPathCapSteadyStateAllocFree(t *testing.T) {
	cons := constellation.MustNew(16)
	const nr, nt, nSC = 6, 4, 8
	fa := frameChannels(1820, nr, nt, nSC)
	fb := frameChannels(1821, nr, nt, nSC)
	for _, bb := range benchBackends {
		t.Run(bb.name, func(t *testing.T) {
			fc := New(cons, Options{NPE: 32, PathReuse: true, Backend: bb.backend})
			var st ReuseState
			fc.SetReuseState(&st)
			i := 0
			static := func() { // hit, hit by prefix, hit, …
				i++
				fc.SetPathCap(12 * (i % 2))
				if err := fc.PrepareAll(fa, 0.05); err != nil {
					t.Fatal(err)
				}
			}
			mobile := func() { // every frame a miss, every other one capped
				i++
				fc.SetPathCap(12 * (i / 2 % 2))
				hs := fa
				if i%2 == 0 {
					hs = fb
				}
				if err := fc.PrepareAll(hs, 0.05); err != nil {
					t.Fatal(err)
				}
			}
			scalar := func() { // Prepare's own base: hit, hit by prefix, …
				i++
				fc.SetPathCap(12 * (i % 2))
				if err := fc.Prepare(fa[0], 0.05); err != nil {
					t.Fatal(err)
				}
			}
			for _, leg := range []struct {
				name string
				f    func()
			}{{"static", static}, {"mobile", mobile}, {"scalar", scalar}} {
				for w := 0; w < 4; w++ {
					leg.f()
				}
				if allocs := testing.AllocsPerRun(20, leg.f); allocs != 0 {
					t.Errorf("%s frames under an alternating cap: %.1f allocs/op in steady state, want 0", leg.name, allocs)
				}
			}
		})
	}
}

// TestFinderAlternatingGeometryAllocFree gates the finder's arena
// policy: one finder and one store serving searches of two shapes in
// turn — a shard worker with users of two geometries — must settle at
// the high-water mark of each arena instead of reallocating whenever the
// level count changes, with and without the rank view materialised
// after each search.
func TestFinderAlternatingGeometryAllocFree(t *testing.T) {
	small := testModel(t, 16, []float64{0.9, 1.2, 0.7, 1.5}, 12)
	big := testModel(t, 64, []float64{0.5, 1.0, 1.5, 0.8, 1.2, 0.9, 1.1, 0.6}, 18)
	for _, view := range []bool{false, true} {
		var f pathFinder
		var dst pathStore
		search := func(m *Model, nPE int) {
			f.find(m, nPE, 0, &dst)
			if view {
				dst.view()
			}
		}
		search(small, 96)
		search(big, 40)
		i := 0
		allocs := testing.AllocsPerRun(50, func() {
			i++
			if i%2 == 0 {
				search(small, 96)
			} else {
				search(big, 40)
			}
		})
		if allocs != 0 {
			t.Errorf("alternating 4- and 8-level searches (view=%v): %.1f allocs/op after warm-up, want 0", view, allocs)
		}
	}
}

// TestPrepareAllAlternatingGeometryAllocFree gates the detector's arena
// policy under mixed-geometry traffic: one detector preparing 4×4 and
// 8×8 frames in turn — a serve worker whose consecutive frames come from
// users of two geometries — must settle at the high-water mark of the
// per-slot Q/R factors and, with a ReuseState installed, of every base
// R, instead of reallocating whenever the shape changes.
func TestPrepareAllAlternatingGeometryAllocFree(t *testing.T) {
	cons := constellation.MustNew(16)
	const nSC = 6
	small := [2][]*cmatrix.Matrix{frameChannels(1901, 4, 4, nSC), frameChannels(1902, 4, 4, nSC)}
	big := [2][]*cmatrix.Matrix{frameChannels(1903, 8, 8, nSC), frameChannels(1904, 8, 8, nSC)}
	y := make([]complex128, 8)
	for _, bb := range benchBackends {
		for _, withState := range []bool{false, true} {
			fc := New(cons, Options{NPE: 32, PathReuse: withState, Backend: bb.backend})
			// One state shared by both geometries: every frame finds bases
			// of the other shape, misses, and re-bases all of them.
			var st ReuseState
			if withState {
				fc.SetReuseState(&st)
			}
			i := 0
			frame := func() {
				i++
				hs := small[i/2%2]
				if i%2 == 0 {
					hs = big[i/2%2]
				}
				if err := fc.PrepareAll(hs, 0.05); err != nil {
					t.Fatal(err)
				}
				for k := range hs {
					fc.Select(k)
					fc.Detect(y[:hs[k].Rows])
				}
			}
			for w := 0; w < 4; w++ {
				frame()
			}
			if allocs := testing.AllocsPerRun(20, frame); allocs != 0 {
				t.Errorf("%s, ReuseState %v: alternating 4×4 and 8×8 frames: %.1f allocs/op after warm-up, want 0",
					bb.name, withState, allocs)
			}
		}
	}
}
