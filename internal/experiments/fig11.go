package experiments

import (
	"fmt"
	"io"

	"flexcore/internal/platform/gpu"
)

// Fig11 regenerates the paper's Fig. 11: FlexCore's GPU speedup against
// the GPU-based FCSD (baseline 1.0) for 12×12 64-QAM, as a function of
// the sphere-decoder paths |E| evaluated in parallel, for batch sizes
// Nsc ∈ {64, 1024, 16384} and FCSD expansion depths L ∈ {1, 2}, with
// OpenMP CPU baselines. Values are from the calibrated GPU execution
// model (DESIGN.md §2).
func Fig11(cfg Config, w io.Writer) ([]*Table, error) {
	dev := gpu.GTX970
	const nt, qam = 12, 64
	es := []int{8, 16, 32, 64, 128, 256, 512, 1024}
	var out []*Table
	for _, l := range []int{1, 2} {
		paths := qam
		if l == 2 {
			paths = qam * qam
		}
		t := &Table{
			Title:  fmt.Sprintf("Fig. 11 — FlexCore speedup vs GPU FCSD (12×12 64-QAM, L=%d, %d FCSD paths)", l, paths),
			Header: []string{"|E|", "Nsc=64", "Nsc=1024", "Nsc=16384"},
		}
		for _, e := range es {
			row := []string{d(int64(e))}
			for _, nsc := range []int{64, 1024, 16384} {
				base := gpu.Workload{Vectors: nsc, PathsPerVector: paths, Levels: nt}
				flex := gpu.Workload{Vectors: nsc, PathsPerVector: e, Levels: nt, FlexCore: true}
				row = append(row, f2(dev.Speedup(base, flex)))
			}
			t.Add(row...)
		}
		// CPU references relative to the same GPU FCSD baseline.
		base := gpu.Workload{Vectors: 16384, PathsPerVector: paths, Levels: nt}
		gpuT := dev.KernelTime(base)
		for _, threads := range []int{1, 2, 4, 8} {
			t.Notes = append(t.Notes, fmt.Sprintf("FCSD OpenMP-%d: %.3fx of the GPU FCSD baseline", threads, gpuT/dev.CPUTime(base, threads)))
		}
		t.Notes = append(t.Notes, "paper headline: ≈19× at |E|=128, L=2, high occupancy; speedup shrinks with |E| and at low occupancy (Nsc=64)")
		if w != nil {
			t.Fprint(w)
		}
		out = append(out, t)
	}
	return out, nil
}
