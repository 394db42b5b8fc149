package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"flexcore/internal/constellation"
	"flexcore/internal/core"
	"flexcore/internal/detector"
)

// chaosServe starts a real-detector TCP server with the connection
// hygiene budgets armed and returns its dial address. Shutdown and the
// Serve error are checked in cleanup.
func chaosServe(t *testing.T, cons *constellation.Constellation, cfg Config) (*Server, string) {
	t.Helper()
	if cfg.DetectorFactory == nil {
		backend := envBackend(t)
		cfg.DetectorFactory = func() detector.Detector {
			return core.New(cons, core.Options{NPE: e2eNPE, Backend: backend})
		}
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(lis) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-serveErr; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return srv, lis.Addr().String()
}

// faultDial dials the server and wraps the connection in a FaultConn.
func faultDial(t *testing.T, addr string, plan FaultPlan) *Client {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	return NewClient(NewFaultConn(conn, plan))
}

// TestChaosLosslessFaults drives real frames through every lossless
// fault class — partial writes, short reads, stutter, and all three at
// once — with the hygiene deadlines armed. The byte stream is reshaped
// but intact, so every response must still be bit-identical to the
// offline reference and nothing may be counted as a peer fault.
func TestChaosLosslessFaults(t *testing.T) {
	cons, err := constellation.New(e2eQAM)
	if err != nil {
		t.Fatal(err)
	}
	srv, addr := chaosServe(t, cons, Config{
		Shards:       2,
		ReadTimeout:  2 * time.Second,
		IdleTimeout:  5 * time.Second,
		WriteTimeout: 2 * time.Second,
	})

	plans := []struct {
		name string
		plan FaultPlan
	}{
		{"partial-writes", FaultPlan{Seed: 0xc0ffee01, MaxWriteChunk: 7}},
		{"short-reads", FaultPlan{Seed: 0xc0ffee02, MaxReadChunk: 5}},
		{"stutter", FaultPlan{Seed: 0xc0ffee03, StutterEvery: 9, Stutter: 200 * time.Microsecond}},
		{"combined", FaultPlan{Seed: 0xc0ffee04, MaxWriteChunk: 9, MaxReadChunk: 7, StutterEvery: 17, Stutter: 200 * time.Microsecond}},
	}
	for pi, p := range plans {
		t.Run(p.name, func(t *testing.T) {
			cl := faultDial(t, addr, p.plan)
			defer cl.Close()
			var q DetectRequest
			var resp DetectResponse
			for f := 0; f < 3; f++ {
				fillFrame(t, &q, uint64(7000+pi), uint64(f+1))
				if err := cl.Do(&q, &resp); err != nil {
					t.Fatalf("frame %d under %s: %v", f+1, p.name, err)
				}
				checkResponse(t, cons, &q, &resp)
			}
		})
	}
	snap := srv.Metrics()
	if snap.BadFrames != 0 || snap.ConnTimeouts != 0 || snap.WriteErrors != 0 {
		t.Fatalf("lossless faults were miscounted as peer faults: bad_frames %d conn_timeouts %d write_errors %d",
			snap.BadFrames, snap.ConnTimeouts, snap.WriteErrors)
	}
}

// TestChaosCorruptionCaughtByCRC flips one bit of the second frame in
// flight: the server's CRC check must reject the frame and close the
// connection (framing cannot be resynchronised), counting exactly one
// bad frame — and the server must keep serving fresh connections.
func TestChaosCorruptionCaughtByCRC(t *testing.T) {
	cons, err := constellation.New(e2eQAM)
	if err != nil {
		t.Fatal(err)
	}
	srv, addr := chaosServe(t, cons, Config{})

	var q DetectRequest
	fillFrame(t, &q, 7100, 1)
	frameLen := int64(len(AppendFrame(nil, MsgDetect, q.AppendPayload(nil))))

	// Corrupt the 5th payload byte of frame 2 (same geometry, same wire
	// length as frame 1) — inside the CRC-covered region.
	cl := faultDial(t, addr, FaultPlan{Seed: 1, CorruptByte: frameLen + headerSize + 5})
	defer cl.Close()
	var resp DetectResponse
	fillFrame(t, &q, 7100, 1)
	if err := cl.Do(&q, &resp); err != nil {
		t.Fatalf("frame 1 (before the corruption point): %v", err)
	}
	checkResponse(t, cons, &q, &resp)

	fillFrame(t, &q, 7100, 2)
	if err := cl.Do(&q, &resp); err == nil {
		t.Fatal("corrupted frame was answered — the CRC must catch in-flight corruption")
	}
	waitFor(t, "bad-frame counter", func() bool { return srv.Metrics().BadFrames == 1 })

	// The server survived: a clean connection still round-trips.
	cl2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	fillFrame(t, &q, 7101, 1)
	if err := cl2.Do(&q, &resp); err != nil {
		t.Fatalf("clean connection after the corrupted one: %v", err)
	}
	checkResponse(t, cons, &q, &resp)
}

// TestChaosMidFrameReset kills the connection partway through the
// second frame's bytes: the client gets the typed ErrInjectedReset,
// the server sees a truncated frame (one bad frame, no hang), and
// fresh connections keep working.
func TestChaosMidFrameReset(t *testing.T) {
	cons, err := constellation.New(e2eQAM)
	if err != nil {
		t.Fatal(err)
	}
	srv, addr := chaosServe(t, cons, Config{})

	var q DetectRequest
	fillFrame(t, &q, 7200, 1)
	frameLen := int64(len(AppendFrame(nil, MsgDetect, q.AppendPayload(nil))))

	cl := faultDial(t, addr, FaultPlan{Seed: 2, ResetAfter: frameLen + headerSize + 10})
	defer cl.Close()
	var resp DetectResponse
	fillFrame(t, &q, 7200, 1)
	if err := cl.Do(&q, &resp); err != nil {
		t.Fatalf("frame 1 (before the reset point): %v", err)
	}
	checkResponse(t, cons, &q, &resp)

	fillFrame(t, &q, 7200, 2)
	err = cl.Do(&q, &resp)
	if !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("mid-frame reset surfaced as %v, want ErrInjectedReset", err)
	}
	waitFor(t, "bad-frame counter", func() bool { return srv.Metrics().BadFrames == 1 })

	cl2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	fillFrame(t, &q, 7201, 1)
	if err := cl2.Do(&q, &resp); err != nil {
		t.Fatalf("clean connection after the reset one: %v", err)
	}
	checkResponse(t, cons, &q, &resp)
}

// TestChaosSlowLorisReaped pins the read-side hygiene: a peer stalling
// mid-header is reaped by IdleTimeout, one stalling mid-payload by
// ReadTimeout — both counted as connection timeouts, never as peer
// framing faults — while a healthy connection on the same server is
// completely unaffected. A second server with a long IdleTimeout tells
// the two budgets apart.
func TestChaosSlowLorisReaped(t *testing.T) {
	cons, err := constellation.New(e2eQAM)
	if err != nil {
		t.Fatal(err)
	}
	srv, addr := chaosServe(t, cons, Config{
		ReadTimeout: 150 * time.Millisecond,
		IdleTimeout: 150 * time.Millisecond,
	})

	var q DetectRequest
	fillFrame(t, &q, 7300, 1)
	frame := AppendFrame(nil, MsgDetect, q.AppendPayload(nil))

	// Loris A: five header bytes, then silence → idle reaper.
	lorisA, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer lorisA.Close()
	if _, err := lorisA.Write(frame[:5]); err != nil {
		t.Fatal(err)
	}

	// Loris B: full header plus a payload prefix, then silence → the
	// mid-frame read deadline.
	lorisB, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer lorisB.Close()
	if _, err := lorisB.Write(frame[:headerSize+8]); err != nil {
		t.Fatal(err)
	}

	// A healthy client keeps round-tripping while both lorises stall.
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var resp DetectResponse
	for f := 0; f < 3; f++ {
		fillFrame(t, &q, 7301, uint64(f+1))
		if err := cl.Do(&q, &resp); err != nil {
			t.Fatalf("healthy frame %d during the loris stall: %v", f+1, err)
		}
		checkResponse(t, cons, &q, &resp)
	}
	// Close the healthy client before waiting: once it goes quiet the
	// idle reaper would (correctly) claim it too, and ConnTimeouts
	// could hop from 2 to 3 between polls. A client-initiated close is
	// a clean EOF and counts nothing.
	cl.Close()

	waitFor(t, "both lorises reaped", func() bool { return srv.Metrics().ConnTimeouts == 2 })
	// The reap closed the sockets: the stalled peers observe it.
	for i, loris := range []net.Conn{lorisA, lorisB} {
		loris.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := loris.Read(make([]byte, 1)); err == nil {
			t.Fatalf("loris %d read succeeded after its connection was reaped", i)
		}
	}
	if snap := srv.Metrics(); snap.BadFrames != 0 {
		t.Fatalf("reaped lorises were miscounted as %d bad frames", snap.BadFrames)
	}

	// With a long IdleTimeout only ReadTimeout can cut loris B near
	// 150 ms: the idle deadline armed before the header would hold its
	// stalled payload read for the full 5 s.
	srv2, addr2 := chaosServe(t, cons, Config{
		ReadTimeout: 150 * time.Millisecond,
		IdleTimeout: 5 * time.Second,
	})
	lorisB2, err := net.Dial("tcp", addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer lorisB2.Close()
	if _, err := lorisB2.Write(frame[:headerSize+8]); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	lorisB2.SetReadDeadline(start.Add(2500 * time.Millisecond))
	_, err = lorisB2.Read(make([]byte, 1))
	if ne, ok := err.(net.Error); err == nil || ok && ne.Timeout() {
		t.Fatalf("mid-payload stall not cut by the 150 ms ReadTimeout within %v (IdleTimeout 5 s): %v", time.Since(start), err)
	}
	waitFor(t, "payload loris reaped", func() bool { return srv2.Metrics().ConnTimeouts == 1 })
}

// TestChaosWriteStallCondemned pins the write-side hygiene over the
// synchronous in-process pipe: a client that never drains its
// responses stalls the worker's flush until WriteTimeout condemns the
// connection — after which the worker is free and the next client is
// served normally.
func TestChaosWriteStallCondemned(t *testing.T) {
	slow := newSlowDetector()
	close(slow.gate)
	srv, err := NewServer(Config{
		Shards:          1,
		WriteTimeout:    100 * time.Millisecond,
		DetectorFactory: func() detector.Detector { return slow },
	})
	if err != nil {
		t.Fatal(err)
	}

	stalled := srv.InProcess()
	defer stalled.Close()
	var q DetectRequest
	tinyFrame(t, &q, 1)
	if err := stalled.Send(&q); err != nil {
		t.Fatal(err)
	}
	// Never Recv: the pipe is synchronous, so the worker's response flush
	// blocks until the write deadline condemns the connection.
	waitFor(t, "write-stall condemnation", func() bool { return srv.Metrics().ConnTimeouts == 1 })

	// The worker survived the stall: a fresh client round-trips.
	cl := srv.InProcess()
	defer cl.Close()
	var resp DetectResponse
	tinyFrame(t, &q, 2)
	if err := cl.Do(&q, &resp); err != nil {
		t.Fatalf("frame after the write stall: %v", err)
	}
	if resp.Status != StatusOK || resp.FrameID != 2 {
		t.Fatalf("status %v frame %d, want ok frame 2", resp.Status, resp.FrameID)
	}

	snap := srv.Metrics()
	if snap.WriteErrors != 1 {
		t.Fatalf("write_errors %d, want 1 (one condemned connection)", snap.WriteErrors)
	}
	if snap.BadFrames != 0 {
		t.Fatalf("bad_frames %d, want 0 — the condemned conn's reader error is server-initiated", snap.BadFrames)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestFaultConnDeterminism: the same plan over the same traffic makes
// identical chunking decisions — a failing chaos run replays exactly.
func TestFaultConnDeterminism(t *testing.T) {
	chunks := func(seed uint64) []int {
		a, b := net.Pipe()
		defer a.Close()
		var sizes []int
		done := make(chan struct{})
		go func() {
			defer close(done)
			buf := make([]byte, 64)
			for {
				n, err := b.Read(buf)
				if n > 0 {
					sizes = append(sizes, n)
				}
				if err != nil {
					return
				}
			}
		}()
		fc := NewFaultConn(a, FaultPlan{Seed: seed, MaxWriteChunk: 5})
		payload := make([]byte, 200)
		for i := range payload {
			payload[i] = byte(i)
		}
		if _, err := fc.Write(payload); err != nil {
			t.Fatal(err)
		}
		a.Close()
		<-done
		return sizes
	}
	first, second := chunks(42), chunks(42)
	if fmt.Sprint(first) != fmt.Sprint(second) {
		t.Fatalf("same seed produced different fragmentation:\n%v\n%v", first, second)
	}
	if len(first) < 2 {
		t.Fatalf("MaxWriteChunk=5 over 200 bytes produced %d fragments, want many", len(first))
	}
}
