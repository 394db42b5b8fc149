package core

import (
	"sync"

	"flexcore/internal/cmatrix"
	"flexcore/internal/kernel32"
)

// jobKind selects what the persistent workers execute for one dispatch.
type jobKind int

const (
	// jobBatch fans whole received vectors of a DetectBatch burst across
	// the workers; each worker evaluates every path of its vectors.
	jobBatch jobKind = iota
	// jobPrepModel fans the per-subcarrier channel-rate math of a
	// PrepareAll frame (sorted QR + model) across the workers.
	jobPrepModel
	// jobPrepPaths fans the pre-processing tree searches of a PrepareAll
	// frame's fresh slots across the workers.
	jobPrepPaths
)

// pool is the persistent goroutine pool a FlexCore detector with
// Workers > 1 keeps across DetectBatch/PrepareAll calls — the software
// analogue of the paper's always-resident processing elements. Workers
// block on their start channels between jobs; the dispatching goroutine
// publishes the job parameters on the pool, wakes every worker, and
// waits on wg. The start-channel send and the wg.Wait establish the
// happens-before edges that make the shared job fields safe without
// locks, and all per-job scratch lives on the workers themselves, so a
// steady-state dispatch performs no allocation.
type pool struct {
	d       *FlexCore
	workers []*poolWorker
	wg      sync.WaitGroup

	// Job parameters: written by the dispatcher before the wake-up,
	// read back (worker results) after wg.Wait().
	kind   jobKind
	ys     [][]complex128    // jobBatch: burst of received vectors
	out    [][]int           // jobBatch: arena-backed result slots
	hs     []*cmatrix.Matrix // jobPrepModel: per-subcarrier channels
	sigma2 float64           // jobPrepModel: noise variance
	frame  []prepSlot        // jobPrep*: per-subcarrier slots
	miss   []int32           // jobPrepPaths: slots needing a search
}

// poolWorker is one resident worker: a wake-up channel plus worker-owned
// scratch, grown only when the prepared stream count grows.
type poolWorker struct {
	id    int
	start chan struct{}

	idx  []int        // per-path candidate scratch
	sym  []complex128 // per-path symbol scratch
	best []int        // per-vector best path
	ybar []complex128 // jobBatch: per-worker rotated vector

	qrws   cmatrix.QRWorkspace // jobPrepModel: per-worker QR scratch
	finder pathFinder          // jobPrepPaths: per-worker search state
	ks     kernel32.Scratch    // jobBatch: per-worker lane scratch (SoA backend)

	fallbk int64 // jobBatch: fallback detections in the last job
}

// newPool starts workers resident goroutines for detector d.
func newPool(d *FlexCore, workers int) *pool {
	p := &pool{d: d, workers: make([]*poolWorker, workers)}
	for i := range p.workers {
		w := &poolWorker{id: i, start: make(chan struct{}, 1)}
		p.workers[i] = w
		go p.run(w)
	}
	return p
}

// dispatch wakes every worker for the job currently described by the
// pool's fields and blocks until all of them finish.
//
//flexcore:noalloc
func (p *pool) dispatch() {
	p.wg.Add(len(p.workers))
	for _, w := range p.workers {
		w.start <- struct{}{}
	}
	p.wg.Wait()
}

// stop terminates the resident workers; the pool must not be dispatched
// again afterwards.
func (p *pool) stop() {
	for _, w := range p.workers {
		close(w.start)
	}
}

// run is the worker main loop.
func (p *pool) run(w *poolWorker) {
	for range w.start {
		w.ensure(p.d)
		switch p.kind {
		case jobBatch:
			p.runBatch(w)
		case jobPrepModel:
			p.runPrepModel(w)
		case jobPrepPaths:
			p.runPrepPaths(w)
		}
		p.wg.Done()
	}
}

// ensure grows the worker scratch to the detector's current stream
// count. It runs on the worker goroutine after the wake-up (so it is
// ordered after Prepare) and only allocates when n grows.
func (w *poolWorker) ensure(d *FlexCore) {
	if cap(w.idx) < d.n {
		w.idx = make([]int, d.n)
		w.sym = make([]complex128, d.n)
		w.best = make([]int, d.n)
		w.ybar = make([]complex128, d.n)
	}
	w.idx = w.idx[:d.n]
	w.sym = w.sym[:d.n]
	w.best = w.best[:d.n]
	w.ybar = w.ybar[:d.n]
}

// runBatch fully detects the worker's stride of the burst's vectors,
// writing unpermuted results straight into the shared arena slots.
//
//flexcore:noalloc
func (p *pool) runBatch(w *poolWorker) {
	d := p.d
	w.fallbk = 0
	stride := len(p.workers)
	soa := d.useSoA()
	for i := w.id; i < len(p.ys); i += stride {
		var fb bool
		if soa {
			fb = d.soaDetectOne(p.ys[i], &w.ks, w.ybar, w.idx, w.sym, w.best, p.out[i])
		} else {
			fb = d.detectOne(p.ys[i], w.ybar, w.idx, w.sym, w.best, p.out[i])
		}
		if fb {
			w.fallbk++
		}
	}
}

// runPrepModel computes the sorted QR and per-level model of the
// worker's stride of the frame's subcarriers, each into its own slot
// with worker-owned scratch (slots are disjoint across workers, so the
// stage is lock-free).
//
//flexcore:noalloc
func (p *pool) runPrepModel(w *poolWorker) {
	d := p.d
	stride := len(p.workers)
	for k := w.id; k < len(p.frame); k += stride {
		d.prepareSlot(&p.frame[k], p.hs[k], p.sigma2, &w.qrws)
	}
}

// runPrepPaths runs the pre-processing tree search for the worker's
// stride of the frame's fresh slots, using the worker's own finder.
//
//flexcore:noalloc
func (p *pool) runPrepPaths(w *poolWorker) {
	d := p.d
	stride := len(p.workers)
	for i := w.id; i < len(p.miss); i += stride {
		d.findSlotPaths(&p.frame[p.miss[i]], &w.finder)
	}
}
