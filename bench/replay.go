package main

import (
	"fmt"

	"flexcore/internal/channel"
	"flexcore/internal/cmatrix"
	"flexcore/internal/core"
	"flexcore/internal/kernel32"
	"flexcore/internal/phy"
	"flexcore/internal/serve"
)

// Span names of the layer replay; the layer is the module name.
const (
	spanRoundtrip   = "serve.roundtrip_idle"
	spanInproc      = "serve.inproc_idle"
	spanReqEncode   = "serve.req_encode"
	spanFrameCRC    = "serve.frame_crc"
	spanReqDecode   = "serve.req_decode"
	spanRespEncode  = "serve.resp_encode"
	spanRespDecode  = "serve.resp_decode"
	spanDetectFrame = "phy.detect_frame"
	spanPrepareAll  = "core.prepare_all"
	spanSelect      = "core.select"
	spanDetectFirst = "core.detect_first"
	spanDetect      = "core.detect"
	spanModel       = "core.model"
	spanFindPaths   = "core.find_paths"
	spanSortedQR    = "cmatrix.sorted_qr"
	spanSetChannel  = "kernel32.set_channel"
	spanDescend     = "kernel32.descend"
	spanKth         = "constellation.kth"
	spanC128Prepare = "core.c128.prepare_all"
	spanC128Detect  = "core.c128.detect"
	// Spans recorded under load, one per round trip / DetectFrame call.
	spanLoadRoundtrip = "serve.roundtrip"
	spanLoadFrame     = "phy.detect_frame.load"
)

// kthBatch is the number of KthClosest lookups one span covers: a
// single lookup is shorter than the clock reads around it.
const kthBatch = 1024

// replayFrame is one sampled frame and the spans recorded for it so
// far, so that a later pass can hang its spans under an earlier one's.
type replayFrame struct {
	u, slot int    // ring user and slot
	id      uint64 // frame id carried by every span of the frame
	root    int32  // the span the frame's work belongs to; -1: none
	fd      int32  // its DetectFrame span
	prep    int32  // its PrepareAll span
	// searched is how many of its subcarriers ran the path search
	// inside PrepareAll: all of them with reuse off, the misses with
	// it on.
	searched    int
	first, rest []int32 // per subcarrier: its first Detect, its DetectBatch
	bad         bool    // some layer disagreed with the offline reference
}

// replayer pushes sampled frames through each layer's public entry
// points, one layer per pass over the frames, top layer first, and
// records one span per call. Every call a layer makes into the layer
// below is re-run on its own in the next pass, as a child span, so that
// a call's self time — its duration less its children's — is the time it
// spent in its own layer. A pass touches memory the way the layer does
// under load (one detector cycling through the users' frames), not the
// way an interleaving of all layers would. The detectors carry per-user
// reuse states that follow the same frame history as the load run, so a
// frame hits or misses here exactly when it did there.
type replayer struct {
	w    *workload
	ring *ring
	ref  [][]uint16
	tr   *tracer

	// phy layer: DetectFrame, as the service's workers call it.
	phyDet   *core.FlexCore
	fd       *phy.FrameDetector
	phyReuse []core.ReuseState
	f        *replayFrame         // frame under replay; check marks it bad
	cur      *serve.DetectRequest // its request, for DetectFrame's callbacks
	curRef   []uint16             // its offline reference
	burst    func(k int) [][]complex128
	emit     func(k int, decisions [][]int)

	// core layer: PrepareAll / Select / Detect / DetectBatch.
	coreDet   *core.FlexCore
	coreReuse []core.ReuseState

	// cmatrix, core model/search and kernel32 entry points.
	ws      cmatrix.QRWorkspace
	qr      cmatrix.QRResult
	model   core.Model
	prep    kernel32.Prep
	slicer  *kernel32.Slicer32
	scratch kernel32.Scratch
	ybar    []complex128
	lane    []int
	out     []int

	// serve codec.
	payload, wire []byte
	req           serve.DetectRequest
	resp, respOut serve.DetectResponse

	kthZ []complex128
}

func newReplayer(w *workload, r *ring, tr *tracer, seed uint64) (*replayer, error) {
	ref, err := r.reference(w.npe)
	if err != nil {
		return nil, err
	}
	rp := &replayer{
		w: w, ring: r, ref: ref, tr: tr,
		phyDet:    core.New(r.cons, w.options(w.npe, core.BackendSoA32, 1)),
		coreDet:   core.New(r.cons, w.options(w.npe, core.BackendSoA32, 1)),
		phyReuse:  make([]core.ReuseState, w.users),
		coreReuse: make([]core.ReuseState, w.users),
		slicer:    kernel32.NewSlicer32(r.cons),
		ybar:      make([]complex128, w.nt),
		lane:      make([]int, w.nt),
		out:       make([]int, w.nt),
		kthZ:      make([]complex128, kthBatch),
	}
	rp.fd = phy.NewFrameDetector(rp.phyDet)
	rp.burst = func(k int) [][]complex128 { return rp.cur.Burst(k) }
	rp.emit = func(k int, decisions [][]int) {
		for s, d := range decisions {
			rp.check(k, s, d)
		}
	}
	// Lookup points spread over the constellation's extent and a bit
	// beyond, as effective received points are.
	rng := channel.NewStreamRNG(seed^0x6b7468, 0)
	for i := range rp.kthZ {
		rp.kthZ[i] = complex(1.3*(2*rng.Float64()-1), 1.3*(2*rng.Float64()-1))
	}
	return rp, nil
}

func (rp *replayer) close() {
	rp.phyDet.Close()
	rp.coreDet.Close()
}

// check compares one detected vector with the offline reference.
func (rp *replayer) check(k, s int, got []int) {
	want := rp.curRef[(k*rp.w.s+s)*rp.w.nt:]
	for i, d := range got {
		if uint16(d) != want[i] {
			rp.f.bad = true
		}
	}
}

// span times one call.
func (rp *replayer) span(name string, parent int32, frame uint64, calls int, f func()) int32 {
	t0 := rp.tr.now()
	f()
	return rp.tr.add(name, parent, frame, t0, rp.tr.now(), calls)
}

// warm runs, untimed, the frame each user sent just before the replay
// starts (prev gives its ring slot) through both detectors, so the
// first replayed frame meets the history it would under load: a static
// user's reuse bases are in place, a mobile user's base is some other
// channel.
func (rp *replayer) warm(prev func(u int) int) error {
	for u := 0; u < rp.w.users; u++ {
		q := rp.begin(rp.newFrame(u, prev(u), 0, -1))
		if err := rp.fd.DetectFrame(q.H(), q.Sigma2, rp.burst, rp.emit); err != nil {
			return err
		}
		if err := rp.coreDet.PrepareAll(q.H(), q.Sigma2); err != nil {
			return err
		}
		for k := range q.H() {
			if err := rp.coreDet.Select(k); err != nil {
				return err
			}
			rp.coreDet.DetectBatch(q.Burst(k))
		}
	}
	return nil
}

// install keys both detectors' reuse caches to user u.
func (rp *replayer) install(u int) {
	if rp.w.reuse {
		rp.fd.SetReuseState(&rp.phyReuse[u])
		rp.coreDet.SetReuseState(&rp.coreReuse[u])
	}
}

// counters is the exact-count side of the replay, read off the phy
// detector before and after the measured laps.
type counters struct {
	pre        core.PreprocessStats
	realMuls   int64
	detections int64
	prepares   int64
	fallbacks  int64
	activeSum  float64
	activeN    int64
}

func (rp *replayer) counters() counters {
	oc := rp.phyDet.OpCount()
	sum, n := rp.fd.ActivePEs()
	return counters{
		pre: rp.phyDet.PreprocessStats(), realMuls: oc.RealMuls, detections: oc.Detections,
		prepares: oc.Prepares, fallbacks: rp.phyDet.FallbackDetections(), activeSum: sum, activeN: n,
	}
}

// newFrame starts the record of one sampled frame.
func (rp *replayer) newFrame(u, slot int, id uint64, root int32) *replayFrame {
	return &replayFrame{u: u, slot: slot, id: id, root: root, first: make([]int32, rp.w.k), rest: make([]int32, rp.w.k)}
}

// begin points the callbacks and the reuse caches at frame f.
func (rp *replayer) begin(f *replayFrame) *serve.DetectRequest {
	q := rp.ring.reqs[f.slot]
	rp.f, rp.cur, rp.curRef = f, q, rp.ref[f.slot]
	rp.install(f.u)
	return q
}

// layers replays the frames through every layer below the transport,
// one pass per layer, and returns how many frames disagreed with the
// offline reference anywhere.
func (rp *replayer) layers(frames []*replayFrame) (failed int, err error) {
	passes := []func(*replayFrame) error{rp.phyPass, rp.corePass, rp.partsPass, rp.kthPass}
	if rp.w.serve {
		passes = append([]func(*replayFrame) error{rp.codecPass}, passes...)
	}
	for _, pass := range passes {
		for _, f := range frames {
			if err := pass(f); err != nil {
				return 0, err
			}
		}
	}
	for _, f := range frames {
		if f.bad {
			failed++
		}
	}
	return failed, nil
}

// phyPass: the whole frame in one DetectFrame call.
func (rp *replayer) phyPass(f *replayFrame) error {
	q := rp.begin(f)
	var err error
	f.fd = rp.span(spanDetectFrame, f.root, f.id, 1, func() {
		err = rp.fd.DetectFrame(q.H(), q.Sigma2, rp.burst, rp.emit)
	})
	if err != nil {
		return fmt.Errorf("replay DetectFrame: %w", err)
	}
	return nil
}

// corePass: the calls DetectFrame makes, one span each.
func (rp *replayer) corePass(f *replayFrame) error {
	q := rp.begin(f)
	before := rp.coreDet.PreprocessStats()
	var err error
	f.prep = rp.span(spanPrepareAll, f.fd, f.id, 1, func() {
		err = rp.coreDet.PrepareAll(q.H(), q.Sigma2)
	})
	if err != nil {
		return fmt.Errorf("replay PrepareAll: %w", err)
	}
	f.searched = rp.w.k
	if rp.w.reuse {
		f.searched = int(rp.coreDet.PreprocessStats().CacheMisses - before.CacheMisses)
	}
	for k := 0; k < rp.w.k; k++ {
		ys := q.Burst(k)
		rp.span(spanSelect, f.fd, f.id, 1, func() { err = rp.coreDet.Select(k) })
		if err != nil {
			return fmt.Errorf("replay Select: %w", err)
		}
		// The first Detect after Select rebuilds the float32 planes.
		f.first[k] = rp.span(spanDetectFirst, f.fd, f.id, 1, func() { rp.check(k, 0, rp.coreDet.Detect(ys[0])) })
		if len(ys) > 1 {
			f.rest[k] = rp.span(spanDetect, f.fd, f.id, len(ys)-1, func() {
				for s, d := range rp.coreDet.DetectBatch(ys[1:]) {
					rp.check(k, s+1, d)
				}
			})
		} else {
			// One vector per channel: time a second, steady-state
			// Detect outside the frame's tree so core.detect_us exists
			// on every workload.
			rp.span(spanDetect, -1, f.id, 1, func() { rp.coreDet.Detect(ys[0]) })
		}
	}
	return nil
}

// partsPass: the calls PrepareAll and Detect make, per subcarrier —
// cmatrix, core model and search, kernel32.
func (rp *replayer) partsPass(f *replayFrame) error {
	w, q := rp.w, rp.begin(f)
	invScale := 1 / rp.ring.cons.Scale()
	for k := 0; k < w.k; k++ {
		h := q.H()[k]
		rp.span(spanSortedQR, f.prep, f.id, 1, func() { rp.ws.SortedQRInto(h, cmatrix.OrderSQRD, &rp.qr) })
		rp.span(spanModel, f.prep, f.id, 1, func() { core.NewModelInto(&rp.model, rp.qr.R, q.Sigma2, rp.ring.cons) })
		// A subcarrier PrepareAll did not search still needs its paths
		// for the descent below; its search span then belongs to no
		// parent and counts toward the per-call mean only.
		findParent := f.prep
		if k >= f.searched {
			findParent = -1
		}
		var paths []core.Path
		rp.span(spanFindPaths, findParent, f.id, 1, func() { paths, _ = core.FindPaths32(&rp.model, w.npe, 0) })

		rp.span(spanSetChannel, f.first[k], f.id, 1, func() { rp.prep.SetChannel(rp.qr.R, invScale) })
		P := len(paths)
		ranks := rp.prep.EnsureRanks(P)
		for p := range paths {
			for i, r := range paths[p].Ranks {
				ranks[i*P+p] = int16(r)
			}
		}
		rp.scratch.Ensure(w.nt, P)
		for s, y := range q.Burst(k) {
			rp.scratch.SetYbar(rp.qr.YbarInto(y, rp.ybar))
			descendParent := f.first[k]
			if s > 0 {
				descendParent = f.rest[k]
			}
			var lane int
			rp.span(spanDescend, descendParent, f.id, 1, func() {
				lane, _ = kernel32.Descend(&rp.prep, rp.slicer, &rp.scratch, 0, P, false)
			})
			if lane >= 0 && !rp.prep.Degenerate {
				rp.scratch.GatherIdx(lane, rp.lane)
				rp.check(k, s, rp.qr.UnpermuteIntsInto(rp.lane, rp.out))
			}
		}
	}
	return nil
}

// kthPass: the k-th-closest lookup every tree level performs.
func (rp *replayer) kthPass(f *replayFrame) error {
	m := rp.ring.cons.Size()
	rp.span(spanKth, -1, f.id, kthBatch, func() {
		for i, z := range rp.kthZ {
			rp.ring.cons.KthClosest(z, 1+i%m)
		}
	})
	return nil
}

// codecPass: the four encode/decode steps a served frame crosses.
func (rp *replayer) codecPass(f *replayFrame) error {
	q := rp.begin(f)
	ref := rp.ref[f.slot]
	enc := rp.span(spanReqEncode, f.root, f.id, 1, func() {
		rp.payload = q.AppendPayload(rp.payload[:0])
		rp.wire = serve.AppendFrame(rp.wire[:0], serve.MsgDetect, rp.payload)
	})
	// Framing alone — header, CRC-32 and the payload copy — as a child
	// of the encode it is part of.
	rp.span(spanFrameCRC, enc, f.id, 1, func() {
		rp.wire = serve.AppendFrame(rp.wire[:0], serve.MsgDetect, rp.payload)
	})
	rp.span(spanReqDecode, f.root, f.id, 1, func() {
		_, payload, _, err := serve.DecodeFrame(rp.wire)
		if err != nil || rp.req.Decode(payload) != nil {
			f.bad = true
		}
	})
	rp.resp = serve.DetectResponse{
		FrameID: f.id, Status: serve.StatusOK, Nt: q.Nt, Subcarriers: q.Subcarriers, Symbols: q.Symbols,
		Decisions: ref,
	}
	rp.span(spanRespEncode, f.root, f.id, 1, func() {
		rp.payload = rp.resp.AppendPayload(rp.payload[:0])
		rp.wire = serve.AppendFrame(rp.wire[:0], serve.MsgResult, rp.payload)
	})
	rp.span(spanRespDecode, f.root, f.id, 1, func() {
		_, payload, _, err := serve.DecodeFrame(rp.wire)
		if err != nil || rp.respOut.Decode(payload) != nil || !equalDecisions(rp.respOut.Decisions, ref) {
			f.bad = true
		}
	})
	return nil
}

// c128 times the reference backend's channel-rate and symbol-rate calls
// on the first n ring frames.
func (rp *replayer) c128(n int) error {
	det := core.New(rp.ring.cons, rp.w.options(rp.w.npe, core.BackendComplex128, 1))
	defer det.Close()
	for i := 0; i < n && i < len(rp.ring.reqs); i++ {
		q := rp.ring.reqs[i]
		var err error
		rp.span(spanC128Prepare, -1, uint64(i), 1, func() { err = det.PrepareAll(q.H(), q.Sigma2) })
		if err != nil {
			return fmt.Errorf("c128 PrepareAll: %w", err)
		}
		for k := range q.H() {
			if err := det.Select(k); err != nil {
				return fmt.Errorf("c128 Select: %w", err)
			}
			ys := q.Burst(k)
			rp.span(spanC128Detect, -1, uint64(i), len(ys), func() { det.DetectBatch(ys) })
		}
	}
	return nil
}

func equalDecisions(a, b []uint16) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
