package serve

import (
	"encoding/binary"
	"errors"
	"math"

	"flexcore/internal/cmatrix"
)

// Status is the per-request outcome code carried by every
// DetectResponse. Rejections are always explicit: a request that
// cannot be served is answered with its status, never silently
// dropped.
type Status uint8

// The response status codes.
const (
	// StatusOK: the frame was detected; the response carries decisions.
	StatusOK Status = 0
	// StatusOverloaded: the target shard's admission queue was full.
	// The request was rejected immediately (backpressure) — retry later.
	StatusOverloaded Status = 1
	// StatusDraining: the server is shutting down and admits no new
	// work; already-admitted frames still complete and respond.
	StatusDraining Status = 2
	// StatusInvalid: the request payload was malformed (bad geometry,
	// non-finite values, size mismatch) or detection failed.
	StatusInvalid Status = 3
	// StatusExpired: the request's deadline (DetectRequest.DeadlineMicros)
	// elapsed before a worker could start detecting it — the frame was
	// shed at admission or at dequeue instead of burning detector time on
	// a result the PHY can no longer use.
	StatusExpired Status = 4
)

// statusMax is the highest defined status (decode validation bound).
const statusMax = StatusExpired

// String names the status for logs and test failures.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusOverloaded:
		return "overloaded"
	case StatusDraining:
		return "draining"
	case StatusInvalid:
		return "invalid"
	case StatusExpired:
		return "expired"
	}
	return "unknown"
}

// Geometry caps: together with MaxPayload they bound the memory a
// single request can make the server commit, so a hostile or buggy
// client cannot balloon a shard's arenas.
const (
	// MaxAntennas caps Nr (and therefore Nt ≤ Nr) per request.
	MaxAntennas = 64
	// MaxSubcarriers caps the per-frame subcarrier count.
	MaxSubcarriers = 512
	// MaxSymbols caps the per-frame OFDM symbol count.
	MaxSymbols = 512
)

// Payload sizes (bytes).
const (
	reqHeaderSize  = 40
	respHeaderSize = 20
	c128Size       = 16 // one complex128 on the wire: re, im float64
)

// Payload-level decode errors (the connection survives them: framing
// is intact, so the request is answered with StatusInvalid).
var (
	// ErrPayload reports a structurally malformed payload.
	ErrPayload = errors.New("serve: malformed payload")
	// ErrGeometry reports an out-of-range MIMO/OFDM geometry.
	ErrGeometry = errors.New("serve: invalid frame geometry")
)

// DetectRequest is one uplink detection request: the per-subcarrier
// channel matrices of one frame plus the received vectors of every
// OFDM symbol on every subcarrier. The struct owns all of its storage
// and is reused across Decode calls, so a connection's steady-state
// ingest allocates nothing.
//
// Payload layout (big-endian, after the wire header):
//
//	offset  size             field
//	0       8                user ID (shard routing key)
//	8       8                frame ID (echoed in the response)
//	16      8                σ² noise variance (float64 bits)
//	24      2                Nr receive antennas
//	26      2                Nt transmit streams (≤ Nr)
//	28      2                K subcarriers
//	30      2                S OFDM symbols
//	32      8                deadline budget in µs (0 = none)
//	40      K·Nr·Nt·16       channel matrices, row-major per subcarrier
//	…       K·S·Nr·16        received vectors, symbol-major per subcarrier
type DetectRequest struct {
	// UserID routes the request to a shard: frames from one user always
	// land on the same shard, in arrival order.
	UserID uint64
	// FrameID is an opaque client token echoed in the response, so a
	// pipelining client can match responses to requests.
	FrameID uint64
	// Sigma2 is the noise variance (must be finite and positive).
	Sigma2 float64
	// Nr, Nt, Subcarriers, Symbols are the frame geometry.
	Nr, Nt, Subcarriers, Symbols int
	// DeadlineMicros is the frame's staleness budget in microseconds,
	// measured by the server from the frame's arrival (no client/server
	// clock synchronisation is assumed — it is a TTL, not a timestamp).
	// A frame whose budget elapses before a worker starts detecting it
	// is answered with StatusExpired instead of being served late. 0
	// means no deadline.
	DeadlineMicros uint64

	hdata []complex128     // flat channel storage: K·Nr·Nt
	hs    []cmatrix.Matrix // per-subcarrier headers into hdata
	hptr  []*cmatrix.Matrix
	ydata []complex128   // flat received-vector storage: K·S·Nr
	ys    [][]complex128 // K·S headers into ydata
}

// SetGeometry sizes the request for the given frame geometry, growing
// the owned storage only past its high-water mark, and validates it
// against the caps. Client code calls it before filling H()/Burst();
// Decode calls it with the geometry read off the wire.
func (q *DetectRequest) SetGeometry(nr, nt, subcarriers, symbols int) error {
	if nt < 1 || nr < nt || nr > MaxAntennas {
		return ErrGeometry
	}
	if subcarriers < 1 || subcarriers > MaxSubcarriers || symbols < 1 || symbols > MaxSymbols {
		return ErrGeometry
	}
	q.Nr, q.Nt, q.Subcarriers, q.Symbols = nr, nt, subcarriers, symbols
	hn := subcarriers * nr * nt
	if cap(q.hdata) < hn {
		q.hdata = make([]complex128, hn)
	}
	q.hdata = q.hdata[:hn]
	if cap(q.hs) < subcarriers {
		q.hs = make([]cmatrix.Matrix, subcarriers)
		q.hptr = make([]*cmatrix.Matrix, subcarriers)
	}
	q.hs = q.hs[:subcarriers]
	q.hptr = q.hptr[:subcarriers]
	per := nr * nt
	for k := 0; k < subcarriers; k++ {
		q.hs[k] = cmatrix.Matrix{Rows: nr, Cols: nt, Data: q.hdata[k*per : (k+1)*per : (k+1)*per]}
		q.hptr[k] = &q.hs[k]
	}
	yn := subcarriers * symbols * nr
	if cap(q.ydata) < yn {
		q.ydata = make([]complex128, yn)
	}
	q.ydata = q.ydata[:yn]
	bursts := subcarriers * symbols
	if cap(q.ys) < bursts {
		q.ys = make([][]complex128, bursts)
	}
	q.ys = q.ys[:bursts]
	for i := 0; i < bursts; i++ {
		q.ys[i] = q.ydata[i*nr : (i+1)*nr : (i+1)*nr]
	}
	return nil
}

// H returns the per-subcarrier channel matrices, aliasing
// request-owned storage (valid until the next SetGeometry/Decode).
func (q *DetectRequest) H() []*cmatrix.Matrix { return q.hptr }

// Burst returns the received vectors of subcarrier k, one per OFDM
// symbol, aliasing request-owned storage.
func (q *DetectRequest) Burst(k int) [][]complex128 {
	return q.ys[k*q.Symbols : (k+1)*q.Symbols]
}

// payloadSize is the exact encoded payload size for the geometry.
func (q *DetectRequest) payloadSize() int {
	return reqHeaderSize + c128Size*(q.Subcarriers*q.Nr*q.Nt+q.Subcarriers*q.Symbols*q.Nr)
}

// AppendPayload appends the canonical payload encoding of q to dst.
func (q *DetectRequest) AppendPayload(dst []byte) []byte {
	dst = appendU64(dst, q.UserID)
	dst = appendU64(dst, q.FrameID)
	dst = appendU64(dst, math.Float64bits(q.Sigma2))
	dst = appendU16(dst, uint16(q.Nr))
	dst = appendU16(dst, uint16(q.Nt))
	dst = appendU16(dst, uint16(q.Subcarriers))
	dst = appendU16(dst, uint16(q.Symbols))
	dst = appendU64(dst, q.DeadlineMicros)
	for _, v := range q.hdata {
		dst = appendC128(dst, v)
	}
	for _, v := range q.ydata {
		dst = appendC128(dst, v)
	}
	return dst
}

// Decode parses payload into q, reusing q's storage. Truncated,
// oversized, inconsistent or non-finite payloads return ErrPayload or
// ErrGeometry; Decode never panics on arbitrary input.
// TestRequestPayloadRoundTrip pins the layout against AppendPayload's.
//
//flexcore:noalloc
func (q *DetectRequest) Decode(payload []byte) error {
	if len(payload) < reqHeaderSize {
		return ErrPayload
	}
	q.UserID = binary.BigEndian.Uint64(payload[0:8])
	q.FrameID = binary.BigEndian.Uint64(payload[8:16])
	q.Sigma2 = math.Float64frombits(binary.BigEndian.Uint64(payload[16:24]))
	if math.IsNaN(q.Sigma2) || math.IsInf(q.Sigma2, 0) || q.Sigma2 <= 0 {
		return ErrPayload
	}
	nr := int(binary.BigEndian.Uint16(payload[24:26]))
	nt := int(binary.BigEndian.Uint16(payload[26:28]))
	subcarriers := int(binary.BigEndian.Uint16(payload[28:30]))
	symbols := int(binary.BigEndian.Uint16(payload[30:32]))
	q.DeadlineMicros = binary.BigEndian.Uint64(payload[32:40])
	if err := q.SetGeometry(nr, nt, subcarriers, symbols); err != nil {
		return err
	}
	if len(payload) != q.payloadSize() {
		return ErrPayload
	}
	off := reqHeaderSize
	for i := range q.hdata {
		v, ok := decodeC128(payload[off:])
		if !ok {
			return ErrPayload
		}
		q.hdata[i] = v
		off += c128Size
	}
	for i := range q.ydata {
		v, ok := decodeC128(payload[off:])
		if !ok {
			return ErrPayload
		}
		q.ydata[i] = v
		off += c128Size
	}
	return nil
}

// peekFrameID best-effort extracts the frame ID from a payload that
// failed Decode, so the rejection can still be matched by the client.
//
//flexcore:noalloc
func peekFrameID(payload []byte) uint64 {
	if len(payload) < 16 {
		return 0
	}
	return binary.BigEndian.Uint64(payload[8:16])
}

// DetectResponse is the outcome of one DetectRequest. For StatusOK it
// carries the hard decisions — per-stream constellation symbol indices
// for every (subcarrier, OFDM symbol) of the frame; for every other
// status the geometry fields are zero and Decisions is empty.
//
// Payload layout (big-endian, after the wire header):
//
//	offset  size        field
//	0       8           frame ID (echo of the request)
//	8       1           status
//	9       1           reserved, must be zero
//	10      2           Nt
//	12      2           K subcarriers
//	14      2           S OFDM symbols
//	16      4           served N_PE (0 = full configured N_PE)
//	20      K·S·Nt·2    decisions, uint16 each, (k, s, stream)-major
type DetectResponse struct {
	FrameID                  uint64
	Status                   Status
	Nt, Subcarriers, Symbols int
	// ServedNPE reports the processing-element count the frame was
	// actually detected with when the pressure controller degraded it
	// below the serving configuration's full N_PE; 0 means the frame was
	// served at full quality. Always 0 on non-OK statuses.
	ServedNPE int
	// Decisions is the flat (subcarrier, symbol, stream)-major decision
	// array; it is reused across Decode calls.
	Decisions []uint16
}

// Decision returns the detected constellation index of stream i on
// OFDM symbol s of subcarrier k.
func (r *DetectResponse) Decision(k, s, i int) int {
	return int(r.Decisions[(k*r.Symbols+s)*r.Nt+i])
}

// appendRespHeader appends the response payload header. Non-OK
// statuses carry zero geometry, zero served N_PE and no decisions.
//
//flexcore:noalloc
func appendRespHeader(dst []byte, frameID uint64, st Status, npe, nt, subcarriers, symbols int) []byte {
	dst = appendU64(dst, frameID)
	dst = append(dst, byte(st), 0) //lint:ignore noalloc amortised: same reused buffer
	dst = appendU16(dst, uint16(nt))
	dst = appendU16(dst, uint16(subcarriers))
	dst = appendU16(dst, uint16(symbols))
	return appendU32(dst, uint32(npe))
}

// appendDecisions appends one subcarrier's detected burst (the
// detector-owned [symbol][stream] indices) to the response payload.
//
//flexcore:noalloc
func appendDecisions(dst []byte, decisions [][]int) []byte {
	for _, row := range decisions {
		for _, idx := range row {
			dst = appendU16(dst, uint16(idx))
		}
	}
	return dst
}

// Decode parses payload into r, reusing r.Decisions. It never panics
// on arbitrary input. TestResponsePayloadRoundTrip pins the layout
// against the encoder's.
func (r *DetectResponse) Decode(payload []byte) error {
	if len(payload) < respHeaderSize {
		return ErrPayload
	}
	r.FrameID = binary.BigEndian.Uint64(payload[0:8])
	st := Status(payload[8])
	if st > statusMax || payload[9] != 0 {
		return ErrPayload
	}
	r.Status = st
	r.Nt = int(binary.BigEndian.Uint16(payload[10:12]))
	r.Subcarriers = int(binary.BigEndian.Uint16(payload[12:14]))
	r.Symbols = int(binary.BigEndian.Uint16(payload[14:16]))
	r.ServedNPE = int(binary.BigEndian.Uint32(payload[16:20]))
	if st != StatusOK {
		if r.Nt != 0 || r.Subcarriers != 0 || r.Symbols != 0 || r.ServedNPE != 0 || len(payload) != respHeaderSize {
			return ErrPayload
		}
		r.Decisions = r.Decisions[:0]
		return nil
	}
	if r.Nt < 1 || r.Nt > MaxAntennas || r.Subcarriers < 1 || r.Subcarriers > MaxSubcarriers ||
		r.Symbols < 1 || r.Symbols > MaxSymbols {
		return ErrPayload
	}
	n := r.Subcarriers * r.Symbols * r.Nt
	if len(payload) != respHeaderSize+2*n {
		return ErrPayload
	}
	if cap(r.Decisions) < n {
		r.Decisions = make([]uint16, n)
	}
	r.Decisions = r.Decisions[:n]
	for i := 0; i < n; i++ {
		r.Decisions[i] = binary.BigEndian.Uint16(payload[respHeaderSize+2*i:])
	}
	return nil
}

// AppendPayload appends the canonical payload encoding of r to dst
// (the fuzz target's round-trip oracle; the server encodes responses
// incrementally through appendRespHeader/appendDecisions).
func (r *DetectResponse) AppendPayload(dst []byte) []byte {
	dst = appendRespHeader(dst, r.FrameID, r.Status, r.ServedNPE, r.Nt, r.Subcarriers, r.Symbols)
	for _, d := range r.Decisions {
		dst = appendU16(dst, d)
	}
	return dst
}

// appendU64 appends v big-endian.
//
//flexcore:noalloc
func appendU64(dst []byte, v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return append(dst, b[:]...) //lint:ignore noalloc amortised: all wire buffers are reused and regrow only past their high-water mark
}

// appendU16 appends v big-endian.
//
//flexcore:noalloc
func appendU16(dst []byte, v uint16) []byte {
	return append(dst, byte(v>>8), byte(v)) //lint:ignore noalloc amortised: all wire buffers are reused and regrow only past their high-water mark
}

// appendU32 appends v big-endian.
//
//flexcore:noalloc
func appendU32(dst []byte, v uint32) []byte {
	return append(dst, byte(v>>24), byte(v>>16), byte(v>>8), byte(v)) //lint:ignore noalloc amortised: all wire buffers are reused and regrow only past their high-water mark
}

// appendC128 appends a complex128 as two big-endian float64s.
//
//flexcore:noalloc
func appendC128(dst []byte, v complex128) []byte {
	dst = appendU64(dst, math.Float64bits(real(v)))
	return appendU64(dst, math.Float64bits(imag(v)))
}

// decodeC128 reads a complex128 and reports whether both components
// are finite (NaN/Inf channel or sample values are rejected — they
// would poison every distance computation downstream).
//
//flexcore:noalloc
func decodeC128(b []byte) (complex128, bool) {
	re := math.Float64frombits(binary.BigEndian.Uint64(b[0:8]))
	im := math.Float64frombits(binary.BigEndian.Uint64(b[8:16]))
	if math.IsNaN(re) || math.IsInf(re, 0) || math.IsNaN(im) || math.IsInf(im, 0) {
		return 0, false
	}
	return complex(re, im), true
}
