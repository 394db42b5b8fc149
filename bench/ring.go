package main

import (
	"fmt"

	"flexcore/internal/channel"
	"flexcore/internal/constellation"
	"flexcore/internal/core"
	"flexcore/internal/serve"
)

// ring is a workload's pregenerated input: users × frames uplink frames
// drawn from the seed before any timing starts, replayed round-robin so
// the generator does no arithmetic and no allocation inside a timed
// window. A frame is held as a serve.DetectRequest — the container the
// service decodes into — which the library workloads read through its
// H()/Burst() accessors.
type ring struct {
	w    *workload
	cons *constellation.Constellation
	// reqs is user-major: user u's f-th frame is reqs[u*frames+f].
	reqs []*serve.DetectRequest
	// tx holds each frame's transmitted symbol indices, flat in the
	// (subcarrier, symbol, stream)-major order of response decisions.
	tx [][]uint16
	// refs maps an N_PE to the offline reference decisions of every
	// frame at that N_PE.
	refs map[int][][]uint16
}

// userID spreads the users over the server's two shards evenly (8/8
// for 16 users under its SplitMix64 routing; checked by the smoke
// test), so neither shard worker idles while the other queues.
func userID(u int) uint64 { return uint64(1 + u*13) }

// newRing draws the workload's frames from seed. Channels come from a
// per-user (static) or per-frame stream, transmitted symbols and noise
// from a per-frame stream, so a static user's payloads differ while its
// channel bits repeat exactly — the threshold-0 reuse contract.
func newRing(w *workload, seed uint64) (*ring, error) {
	r := &ring{w: w, cons: constellation.MustNew(w.qam), refs: map[int][][]uint16{}}
	x := make([]complex128, w.nt)
	for u := 0; u < w.users; u++ {
		for f := 0; f < w.frames; f++ {
			q := new(serve.DetectRequest)
			q.UserID, q.Sigma2 = userID(u), w.sigma2
			if err := q.SetGeometry(w.nr, w.nt, w.k, w.s); err != nil {
				return nil, fmt.Errorf("ring geometry: %w", err)
			}
			epoch := uint64(f)
			if w.static {
				epoch = 0
			}
			chRNG := channel.NewStreamRNG(seed, uint64(u)<<32|epoch)
			dataRNG := channel.NewStreamRNG(seed^0xda7a, uint64(u)<<32|uint64(f))
			tx := make([]uint16, 0, w.k*w.s*w.nt)
			for k := 0; k < w.k; k++ {
				h := q.H()[k]
				copy(h.Data, channel.Rayleigh(chRNG, w.nr, w.nt).Data)
				for _, y := range q.Burst(k) {
					for i := range x {
						idx := dataRNG.IntN(w.qam)
						tx = append(tx, uint16(idx))
						x[i] = r.cons.Point(idx)
					}
					h.MulVecInto(x, y)
					channel.AddAWGN(dataRNG, y, w.sigma2)
				}
			}
			r.reqs = append(r.reqs, q)
			r.tx = append(r.tx, tx)
		}
	}
	return r, nil
}

// slot is the ring index of user u's frame with sequence number seq.
func (r *ring) slot(u int, seq uint64) int {
	return u*r.w.frames + int(seq%uint64(r.w.frames))
}

// reference returns the offline decisions of every ring frame at the
// given N_PE: one fresh single-worker detector on the workload's
// backend, scalar Prepare + Detect looped over every subcarrier and
// symbol, no reuse and no frame path — the path every served or
// frame-detected decision must match bit for bit. A static user's
// channel is prepared once per subcarrier, which the scalar path makes
// output-neutral.
func (r *ring) reference(npe int) ([][]uint16, error) {
	if ref, ok := r.refs[npe]; ok {
		return ref, nil
	}
	w := r.w
	det := core.New(r.cons, core.Options{NPE: npe, Workers: 1, Backend: core.BackendSoA32})
	defer det.Close()
	ref := make([][]uint16, len(r.reqs))
	for i := range ref {
		ref[i] = make([]uint16, w.k*w.s*w.nt)
	}
	for u := 0; u < w.users; u++ {
		for k := 0; k < w.k; k++ {
			for f := 0; f < w.frames; f++ {
				i := u*w.frames + f
				q := r.reqs[i]
				if f == 0 || !w.static {
					if err := det.Prepare(q.H()[k], q.Sigma2); err != nil {
						return nil, fmt.Errorf("offline reference: %w", err)
					}
				}
				for s, y := range q.Burst(k) {
					out := ref[i][(k*w.s+s)*w.nt:]
					for j, d := range det.Detect(y) {
						out[j] = uint16(d)
					}
				}
			}
		}
	}
	r.refs[npe] = ref
	return ref, nil
}

// ser is the symbol error rate of the full-N_PE offline reference
// against the transmitted symbols over the whole ring: exact for a
// seed, and moved by any change that moves served and offline decisions
// together.
func (r *ring) ser() float64 {
	ref := r.refs[r.w.npe]
	var errs, total int
	for i, tx := range r.tx {
		for j, want := range tx {
			if ref[i][j] != want {
				errs++
			}
		}
		total += len(tx)
	}
	return float64(errs) / float64(total)
}
