package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"
)

// frame builds a valid wire frame around payload.
func frame(typ MsgType, payload []byte) []byte {
	return AppendFrame(nil, typ, payload)
}

// corrupt returns a copy of b with the byte at i flipped.
func corrupt(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= 0xff
	return out
}

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{
		nil,
		{},
		{0x00},
		[]byte("hello flexcore"),
		bytes.Repeat([]byte{0xa5}, 4096),
	}
	for _, typ := range []MsgType{MsgDetect, MsgResult} {
		for _, p := range payloads {
			w := frame(typ, p)
			gotTyp, gotPayload, rest, err := DecodeFrame(w)
			if err != nil {
				t.Fatalf("type %d payload %d bytes: %v", typ, len(p), err)
			}
			if gotTyp != typ {
				t.Fatalf("type %d decoded as %d", typ, gotTyp)
			}
			if !bytes.Equal(gotPayload, p) {
				t.Fatalf("payload mismatch (%d bytes)", len(p))
			}
			if len(rest) != 0 {
				t.Fatalf("%d trailing bytes after a single frame", len(rest))
			}
		}
	}
}

func TestDecodeFrameBackToBack(t *testing.T) {
	var w []byte
	w = AppendFrame(w, MsgDetect, []byte("first"))
	w = AppendFrame(w, MsgResult, []byte("second"))
	typ, p, rest, err := DecodeFrame(w)
	if err != nil || typ != MsgDetect || string(p) != "first" {
		t.Fatalf("first frame: typ=%d payload=%q err=%v", typ, p, err)
	}
	typ, p, rest, err = DecodeFrame(rest)
	if err != nil || typ != MsgResult || string(p) != "second" {
		t.Fatalf("second frame: typ=%d payload=%q err=%v", typ, p, err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes left after two frames", len(rest))
	}
}

func TestDecodeFrameErrors(t *testing.T) {
	valid := frame(MsgDetect, []byte("payload"))

	oversize := frame(MsgDetect, nil)
	binary.BigEndian.PutUint32(oversize[6:10], MaxPayload+1)

	cases := []struct {
		name string
		in   []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"truncated header", valid[:headerSize-1], ErrTruncated},
		{"truncated payload", valid[:len(valid)-1], ErrTruncated},
		{"header only, missing payload", valid[:headerSize], ErrTruncated},
		{"bad magic", corrupt(valid, 0), ErrHeader},
		{"nonzero reserved byte", corrupt(valid, 5), ErrHeader},
		{"unknown type", corrupt(valid, 4), ErrType},
		{"oversize length", oversize, ErrOversize},
		{"corrupted CRC", corrupt(valid, 10), ErrChecksum},
		{"corrupted payload byte", corrupt(valid, headerSize), ErrChecksum},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, _, _, err := DecodeFrame(c.in); !errors.Is(err, c.want) {
				t.Fatalf("got %v, want %v", err, c.want)
			}
		})
	}
}

// TestReadFrameAgreesWithDecodeFrame feeds the same byte streams through
// the io.Reader path and the pure-bytes path: they must agree on every
// outcome, and ReadFrame must distinguish clean EOF (frame boundary)
// from mid-frame truncation.
func TestReadFrameAgreesWithDecodeFrame(t *testing.T) {
	valid := frame(MsgResult, []byte("stream payload"))
	streams := [][]byte{
		valid,
		append(append([]byte(nil), valid...), frame(MsgDetect, []byte("x"))...),
		valid[:len(valid)-3],
		valid[:5],
		corrupt(valid, 2),
		corrupt(valid, len(valid)-1),
	}
	for i, stream := range streams {
		r := bytes.NewReader(stream)
		var buf []byte
		rest := stream
		for {
			wantTyp, wantPayload, wantRest, wantErr := DecodeFrame(rest)
			var typ MsgType
			var payload []byte
			var err error
			typ, payload, buf, err = ReadFrame(r, buf)
			if wantErr != nil {
				if errors.Is(wantErr, ErrTruncated) && len(rest) == 0 {
					// Clean boundary: the reader sees EOF instead.
					if err != io.EOF {
						t.Fatalf("stream %d: ReadFrame at boundary got %v, want io.EOF", i, err)
					}
				} else if !errors.Is(err, wantErr) {
					t.Fatalf("stream %d: ReadFrame got %v, DecodeFrame got %v", i, err, wantErr)
				}
				break
			}
			if err != nil {
				t.Fatalf("stream %d: ReadFrame got %v, DecodeFrame succeeded", i, err)
			}
			if typ != wantTyp || !bytes.Equal(payload, wantPayload) {
				t.Fatalf("stream %d: frame mismatch", i)
			}
			rest = wantRest
		}
	}
}

// TestReadFrameReusesBuffer pins the amortised-allocation contract: a
// second same-size frame must decode into the same backing array.
func TestReadFrameReusesBuffer(t *testing.T) {
	w := frame(MsgDetect, bytes.Repeat([]byte{1}, 256))
	r := bytes.NewReader(append(append([]byte(nil), w...), w...))
	_, _, buf, err := ReadFrame(r, nil)
	if err != nil {
		t.Fatal(err)
	}
	first := &buf[0]
	_, _, buf2, err := ReadFrame(r, buf)
	if err != nil {
		t.Fatal(err)
	}
	if &buf2[0] != first {
		t.Fatal("same-size frame reallocated the read buffer")
	}
}

// fillRequest populates q with a deterministic small frame.
func fillRequest(t testing.TB, q *DetectRequest, nr, nt, k, s int) {
	t.Helper()
	q.UserID, q.FrameID, q.Sigma2 = 42, 7, 0.25
	q.DeadlineMicros = 1500
	if err := q.SetGeometry(nr, nt, k, s); err != nil {
		t.Fatal(err)
	}
	for i := range q.hdata {
		q.hdata[i] = complex(float64(i+1)*0.5, -float64(i))
	}
	for i := range q.ydata {
		q.ydata[i] = complex(-float64(i), float64(i)*0.25)
	}
}

func TestRequestPayloadRoundTrip(t *testing.T) {
	var q DetectRequest
	fillRequest(t, &q, 4, 3, 5, 2)
	payload := q.AppendPayload(nil)
	if len(payload) != q.payloadSize() {
		t.Fatalf("encoded %d bytes, payloadSize says %d", len(payload), q.payloadSize())
	}
	var got DetectRequest
	if err := got.Decode(payload); err != nil {
		t.Fatal(err)
	}
	if got.UserID != q.UserID || got.FrameID != q.FrameID || got.Sigma2 != q.Sigma2 {
		t.Fatal("scalar field mismatch")
	}
	if got.Nr != q.Nr || got.Nt != q.Nt || got.Subcarriers != q.Subcarriers || got.Symbols != q.Symbols {
		t.Fatal("geometry mismatch")
	}
	if got.DeadlineMicros != q.DeadlineMicros {
		t.Fatalf("deadline mismatch: got %d, want %d", got.DeadlineMicros, q.DeadlineMicros)
	}
	for k, h := range got.H() {
		want := q.H()[k]
		if h.Rows != want.Rows || h.Cols != want.Cols {
			t.Fatalf("subcarrier %d: matrix shape mismatch", k)
		}
		for i := range h.Data {
			if h.Data[i] != want.Data[i] {
				t.Fatalf("subcarrier %d: channel entry %d mismatch", k, i)
			}
		}
	}
	for k := 0; k < q.Subcarriers; k++ {
		wantBurst, gotBurst := q.Burst(k), got.Burst(k)
		for s := range wantBurst {
			for i := range wantBurst[s] {
				if gotBurst[s][i] != wantBurst[s][i] {
					t.Fatalf("subcarrier %d symbol %d: sample mismatch", k, s)
				}
			}
		}
	}
	// The decoded request must re-encode to the identical payload.
	if !bytes.Equal(got.AppendPayload(nil), payload) {
		t.Fatal("re-encode differs from original payload")
	}
}

func TestRequestDecodeErrors(t *testing.T) {
	var q DetectRequest
	fillRequest(t, &q, 4, 3, 2, 2)
	valid := q.AppendPayload(nil)

	mutate := func(f func(p []byte)) []byte {
		p := append([]byte(nil), valid...)
		f(p)
		return p
	}
	cases := []struct {
		name string
		in   []byte
		want error
	}{
		{"empty", nil, ErrPayload},
		{"short header", valid[:reqHeaderSize-1], ErrPayload},
		{"truncated samples", valid[:len(valid)-1], ErrPayload},
		{"trailing bytes", append(append([]byte(nil), valid...), 0), ErrPayload},
		{"sigma2 NaN", mutate(func(p []byte) {
			binary.BigEndian.PutUint64(p[16:24], math.Float64bits(math.NaN()))
		}), ErrPayload},
		{"sigma2 zero", mutate(func(p []byte) {
			binary.BigEndian.PutUint64(p[16:24], 0)
		}), ErrPayload},
		{"sigma2 negative", mutate(func(p []byte) {
			binary.BigEndian.PutUint64(p[16:24], math.Float64bits(-1))
		}), ErrPayload},
		{"nt exceeds nr", mutate(func(p []byte) {
			binary.BigEndian.PutUint16(p[26:28], 5)
		}), ErrGeometry},
		{"zero nt", mutate(func(p []byte) {
			binary.BigEndian.PutUint16(p[26:28], 0)
		}), ErrGeometry},
		{"nr over cap", mutate(func(p []byte) {
			binary.BigEndian.PutUint16(p[24:26], MaxAntennas+1)
		}), ErrGeometry},
		{"subcarriers over cap", mutate(func(p []byte) {
			binary.BigEndian.PutUint16(p[28:30], MaxSubcarriers+1)
		}), ErrGeometry},
		{"symbols over cap", mutate(func(p []byte) {
			binary.BigEndian.PutUint16(p[30:32], MaxSymbols+1)
		}), ErrGeometry},
		{"zero subcarriers", mutate(func(p []byte) {
			binary.BigEndian.PutUint16(p[28:30], 0)
		}), ErrGeometry},
		{"non-finite channel entry", mutate(func(p []byte) {
			binary.BigEndian.PutUint64(p[reqHeaderSize:], math.Float64bits(math.Inf(1)))
		}), ErrPayload},
		{"non-finite sample", mutate(func(p []byte) {
			off := reqHeaderSize + c128Size*q.Subcarriers*q.Nr*q.Nt
			binary.BigEndian.PutUint64(p[off:], math.Float64bits(math.NaN()))
		}), ErrPayload},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var got DetectRequest
			if err := got.Decode(c.in); !errors.Is(err, c.want) {
				t.Fatalf("got %v, want %v", err, c.want)
			}
		})
	}
}

func TestResponsePayloadRoundTrip(t *testing.T) {
	r := DetectResponse{
		FrameID: 99, Status: StatusOK,
		Nt: 2, Subcarriers: 3, Symbols: 2,
		Decisions: []uint16{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11},
	}
	payload := r.AppendPayload(nil)
	var got DetectResponse
	if err := got.Decode(payload); err != nil {
		t.Fatal(err)
	}
	if got.FrameID != r.FrameID || got.Status != r.Status ||
		got.Nt != r.Nt || got.Subcarriers != r.Subcarriers || got.Symbols != r.Symbols {
		t.Fatal("header mismatch")
	}
	for i := range r.Decisions {
		if got.Decisions[i] != r.Decisions[i] {
			t.Fatalf("decision %d mismatch", i)
		}
	}
	if got.Decision(2, 1, 1) != 11 {
		t.Fatalf("Decision(2,1,1) = %d, want 11", got.Decision(2, 1, 1))
	}
	// A degraded OK response reports its served N_PE through the codec.
	deg := r
	deg.ServedNPE = 32
	var gotDeg DetectResponse
	if err := gotDeg.Decode(deg.AppendPayload(nil)); err != nil {
		t.Fatal(err)
	}
	if gotDeg.ServedNPE != 32 {
		t.Fatalf("ServedNPE = %d, want 32", gotDeg.ServedNPE)
	}
	// A bare rejection carries zero geometry and no decisions.
	rej := appendRespHeader(nil, 5, StatusOverloaded, 0, 0, 0, 0)
	var gotRej DetectResponse
	if err := gotRej.Decode(rej); err != nil {
		t.Fatal(err)
	}
	if gotRej.FrameID != 5 || gotRej.Status != StatusOverloaded || len(gotRej.Decisions) != 0 {
		t.Fatal("rejection decode mismatch")
	}
	// An expired shed is a bare status response like any rejection.
	exp := appendRespHeader(nil, 6, StatusExpired, 0, 0, 0, 0)
	var gotExp DetectResponse
	if err := gotExp.Decode(exp); err != nil {
		t.Fatal(err)
	}
	if gotExp.FrameID != 6 || gotExp.Status != StatusExpired || gotExp.ServedNPE != 0 {
		t.Fatal("expired decode mismatch")
	}
}

func TestResponseDecodeErrors(t *testing.T) {
	ok := (&DetectResponse{
		FrameID: 1, Status: StatusOK, Nt: 1, Subcarriers: 1, Symbols: 1,
		Decisions: []uint16{3},
	}).AppendPayload(nil)
	rej := appendRespHeader(nil, 1, StatusDraining, 0, 0, 0, 0)

	mutate := func(base []byte, f func(p []byte)) []byte {
		p := append([]byte(nil), base...)
		f(p)
		return p
	}
	cases := []struct {
		name string
		in   []byte
	}{
		{"empty", nil},
		{"short header", ok[:respHeaderSize-1]},
		{"unknown status", mutate(rej, func(p []byte) { p[8] = byte(statusMax) + 1 })},
		{"nonzero reserved", mutate(ok, func(p []byte) { p[9] = 1 })},
		{"rejection with geometry", mutate(rej, func(p []byte) { p[11] = 1 })},
		{"rejection with served npe", mutate(rej, func(p []byte) { p[19] = 1 })},
		{"rejection with trailing bytes", append(append([]byte(nil), rej...), 0, 0)},
		{"ok with zero geometry", mutate(ok, func(p []byte) {
			binary.BigEndian.PutUint16(p[10:12], 0)
		})},
		{"ok with truncated decisions", ok[:len(ok)-1]},
		{"ok with trailing bytes", append(append([]byte(nil), ok...), 0)},
		{"ok with nt over cap", mutate(ok, func(p []byte) {
			binary.BigEndian.PutUint16(p[10:12], MaxAntennas+1)
		})},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var r DetectResponse
			if err := r.Decode(c.in); !errors.Is(err, ErrPayload) {
				t.Fatalf("got %v, want ErrPayload", err)
			}
		})
	}
}

func TestStatusString(t *testing.T) {
	for st, want := range map[Status]string{
		StatusOK: "ok", StatusOverloaded: "overloaded",
		StatusDraining: "draining", StatusInvalid: "invalid",
		StatusExpired: "expired", Status(200): "unknown",
	} {
		if got := st.String(); got != want {
			t.Fatalf("Status(%d).String() = %q, want %q", st, got, want)
		}
	}
	// Every code the decoder accepts has its own name: a code added
	// without a String case would print (and be tallied by flexload's
	// latency_by_status) as "unknown".
	seen := map[string]Status{}
	for st := Status(0); st <= statusMax; st++ {
		name := st.String()
		if name == "unknown" {
			t.Fatalf("Status(%d) is a wire code with no String case", st)
		}
		if prev, dup := seen[name]; dup {
			t.Fatalf("Status(%d) and Status(%d) are both %q", prev, st, name)
		}
		seen[name] = st
	}
}

func TestShardIndexStableAndInRange(t *testing.T) {
	for _, shards := range []int{1, 2, 8, 13} {
		seen := make(map[int]bool)
		for u := uint64(0); u < 4096; u++ {
			i := shardIndex(u, shards)
			if i < 0 || i >= shards {
				t.Fatalf("user %d: shard %d out of [0,%d)", u, i, shards)
			}
			if j := shardIndex(u, shards); j != i {
				t.Fatalf("user %d: routing not stable (%d vs %d)", u, i, j)
			}
			seen[i] = true
		}
		if len(seen) != shards {
			t.Fatalf("%d shards: only %d ever selected over 4096 users", shards, len(seen))
		}
	}
}

// TestShardIndexPinned pins user→shard routing to recorded values:
// routing decides which users share a shard, so it must not drift.
func TestShardIndexPinned(t *testing.T) {
	for _, c := range []struct {
		user          uint64
		shards, shard int
	}{
		{0, 2, 1}, {1, 2, 1}, {7, 4, 3}, {42, 4, 1}, {1000, 8, 0},
		{123456789, 13, 1}, {1 << 40, 3, 0}, {^uint64(0), 16, 0},
		{0xdeadbeef, 5, 2}, {31, 64, 42},
	} {
		if got := shardIndex(c.user, c.shards); got != c.shard {
			t.Errorf("shardIndex(%d, %d) = %d, want %d", c.user, c.shards, got, c.shard)
		}
	}
}
