// Package serve is the long-running detection service of the FlexCore
// reproduction (DESIGN.md §12–13): a streaming frame-ingest interface
// (length-prefixed binary frames over any io.ReadWriteCloser — TCP in
// production, an in-memory pipe in tests), consistent user→shard
// routing onto single-worker shards (per-user FIFO from the shard's one
// queue) and per-user cross-frame Prepare reuse, bounded admission with
// explicit overload rejection (work is refused with a status code,
// never silently dropped), coalesced response writes, graceful drain
// on shutdown, and a metrics surface exposing latency histograms,
// throughput, per-shard queue depths/high-watermarks and reuse
// counters, and the aggregated OpCount/PreprocessStats of every
// worker.
//
// The serving layer adds no arithmetic of its own: detection results
// are produced by the same two-phase Prepare/Detect pipeline as the
// offline path, so a served frame's decisions are bit-identical to
// looping Prepare+Detect over its subcarriers — for any shard count (a
// shard is one worker driving one single-threaded detector), either
// kernel backend, and reuse on or off.
// The e2e and ordering suites (e2e_test.go, order_test.go) enforce
// exactly that contract, plus per-user FIFO completion. Batching
// happens at the bufio/flush layer on both ends, so frames simply
// arrive back-to-back in one segment — nothing for the codec to know.
//
// Overload handling is graded (DESIGN.md §14): requests may carry a
// staleness budget (expired frames are shed with StatusExpired), a
// per-shard pressure controller steps queued frames down a configured
// N_PE ladder before admission control resorts to StatusOverloaded,
// and per-connection read/write deadlines keep one stalled peer from
// wedging a shard's ingest or response path.
package serve

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
)

// The wire format is a stream of length-prefixed frames:
//
//	offset  size  field
//	0       4     magic "FXS2"
//	4       1     message type (MsgDetect | MsgResult)
//	5       1     reserved, must be zero
//	6       4     payload length N (big-endian, ≤ MaxPayload)
//	10      4     IEEE CRC-32 of the payload (big-endian)
//	14      N     payload
//
// Every multi-byte integer on the wire is big-endian. The CRC makes
// payload corruption detectable: a frame that fails any header or
// checksum test is rejected with an error — the decoder never panics
// and never hands corrupted bytes to the payload layer.
const (
	headerSize = 14
	// MaxPayload bounds a single frame's payload; together with the
	// geometry caps of the payload layer it keeps a hostile peer from
	// forcing unbounded allocation.
	MaxPayload = 8 << 20
)

// magic identifies a FlexCore serve frame ("FXS" + format version).
// Version 2 added the request deadline budget, the response served-N_PE
// field and StatusExpired; v1 and v2 frames are mutually rejected at
// the header check, so a version-skewed peer fails fast instead of
// misparsing payloads.
var magic = [4]byte{'F', 'X', 'S', '2'}

// MsgType is the wire frame type.
type MsgType uint8

// The wire frame types.
const (
	// MsgDetect is a detection request (DetectRequest payload).
	MsgDetect MsgType = 1
	// MsgResult is a detection response (DetectResponse payload).
	MsgResult MsgType = 2
)

// Wire-level decode errors. All of them are terminal for the
// connection: once framing is lost there is no way to resynchronise a
// length-prefixed stream.
var (
	// ErrHeader reports a bad magic or nonzero reserved byte.
	ErrHeader = errors.New("serve: bad frame header")
	// ErrType reports an unknown frame type byte.
	ErrType = errors.New("serve: unknown frame type")
	// ErrOversize reports a length field exceeding MaxPayload.
	ErrOversize = errors.New("serve: frame exceeds MaxPayload")
	// ErrChecksum reports a payload whose CRC-32 does not match.
	ErrChecksum = errors.New("serve: frame checksum mismatch")
	// ErrTruncated reports a stream ending mid-frame.
	ErrTruncated = errors.New("serve: truncated frame")
)

// AppendFrame appends one framed message to dst and returns the
// extended slice. It allocates only when dst lacks capacity, so a
// caller reusing its buffer frames messages allocation-free in steady
// state. TestFrameRoundTrip and FuzzFrameCodec pin the header layout
// against parseHeader's.
//
//flexcore:noalloc
func AppendFrame(dst []byte, typ MsgType, payload []byte) []byte {
	var hdr [headerSize]byte
	copy(hdr[0:4], magic[:])
	hdr[4] = byte(typ)
	hdr[5] = 0
	binary.BigEndian.PutUint32(hdr[6:10], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[10:14], crc32.ChecksumIEEE(payload))
	dst = append(dst, hdr[:]...)   //lint:ignore noalloc amortised: the caller reuses dst, which regrows only past its high-water mark
	return append(dst, payload...) //lint:ignore noalloc amortised: same reused buffer
}

// parseHeader validates one frame header and returns the type, payload
// length and expected payload CRC: the decode-side twin of
// AppendFrame's layout, CRC included.
//
//flexcore:noalloc
func parseHeader(hdr []byte) (typ MsgType, n int, crc uint32, err error) {
	if [4]byte(hdr[0:4]) != magic || hdr[5] != 0 {
		return 0, 0, 0, ErrHeader
	}
	typ = MsgType(hdr[4])
	if typ != MsgDetect && typ != MsgResult {
		return 0, 0, 0, ErrType
	}
	length := binary.BigEndian.Uint32(hdr[6:10])
	if length > MaxPayload {
		return 0, 0, 0, ErrOversize
	}
	return typ, int(length), binary.BigEndian.Uint32(hdr[10:14]), nil
}

// DecodeFrame decodes one frame from the head of b, returning the
// message type, the payload (aliasing b) and the remaining bytes. It
// is the pure-bytes twin of ReadFrame (shared by the fuzz target) and
// never panics on arbitrary input.
func DecodeFrame(b []byte) (typ MsgType, payload, rest []byte, err error) {
	if len(b) < headerSize {
		return 0, nil, nil, ErrTruncated
	}
	typ, n, crc, err := parseHeader(b[:headerSize])
	if err != nil {
		return 0, nil, nil, err
	}
	if len(b)-headerSize < n {
		return 0, nil, nil, ErrTruncated
	}
	payload = b[headerSize : headerSize+n]
	if crc32.ChecksumIEEE(payload) != crc {
		return 0, nil, nil, ErrChecksum
	}
	return typ, payload, b[headerSize+n:], nil
}

// ReadFrame reads one frame from r, decoding the payload into buf
// (grown only when a frame exceeds every earlier one). It returns the
// payload (aliasing the returned buffer, valid until the next call
// that reuses it) and the buffer itself for reuse. A clean EOF at a
// frame boundary returns io.EOF, a read-deadline expiry the transport's
// timeout error, and a stream ending mid-frame ErrTruncated.
//
//flexcore:noalloc
func ReadFrame(r io.Reader, buf []byte) (typ MsgType, payload, bufOut []byte, err error) {
	typ, n, crc, buf, err := readHeader(r, buf)
	if err == nil {
		buf, err = readPayload(r, buf, n, crc)
	}
	if err != nil {
		return 0, nil, buf, err
	}
	return typ, buf, buf, nil
}

// readHeader reads one frame header into buf — a stack-local array
// would escape through the io.Reader and allocate — and parses it.
//
//flexcore:noalloc
func readHeader(r io.Reader, buf []byte) (typ MsgType, n int, crc uint32, bufOut []byte, err error) {
	if buf, err = readFull(r, buf, headerSize, io.EOF); err == nil {
		typ, n, crc, err = parseHeader(buf)
	}
	return typ, n, crc, buf, err
}

// readPayload reads the n-byte payload a header announced into buf and
// checks it against the header's CRC.
//
//flexcore:noalloc
func readPayload(r io.Reader, buf []byte, n int, crc uint32) ([]byte, error) {
	buf, err := readFull(r, buf, n, ErrTruncated)
	if err == nil && crc32.ChecksumIEEE(buf) != crc {
		err = ErrChecksum
	}
	return buf, err
}

// readFull reads n bytes from r into buf, grown only past its
// high-water mark. A deadline expiry comes back as is, a stream ending
// before the first byte as eof, and any other failure as ErrTruncated.
//
//flexcore:noalloc
func readFull(r io.Reader, buf []byte, n int, eof error) ([]byte, error) {
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	_, err := io.ReadFull(r, buf)
	if err == io.EOF {
		err = eof
	} else if err != nil && !isTimeout(err) {
		err = ErrTruncated
	}
	return buf, err
}
