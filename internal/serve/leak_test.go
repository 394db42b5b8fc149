package serve

import (
	"context"
	"net"
	"runtime"
	"testing"
	"time"

	"flexcore/internal/detector"
)

// settleGoroutines waits for the process goroutine count to fall back
// to the baseline, dumping all stacks on timeout. Counting is
// inherently racy (test runner goroutines come and go), so the check
// polls until settled rather than asserting a single snapshot.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutines never settled: %d > baseline %d\n%s", n, base, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestNoGoroutineLeakAfterShutdown pins the server's lifecycle
// contract dynamically (the waitdiscipline analyzer pins it
// statically): after traffic over both TCP and the in-process pipe,
// Shutdown joins every goroutine the server started — shard workers,
// connection readers, the accept loop — and none outlive the drain.
func TestNoGoroutineLeakAfterShutdown(t *testing.T) {
	slow := newSlowDetector()
	close(slow.gate)
	base := runtime.NumGoroutine()

	srv, err := NewServer(Config{Shards: 4, DetectorFactory: func() detector.Detector { return slow }})
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(lis) }()

	tcpCl, err := Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	tcpCl.SetIOTimeout(5 * time.Second)
	pipeCl := srv.InProcess()

	var q DetectRequest
	var resp DetectResponse
	for i := uint64(1); i <= 4; i++ {
		tinyFrame(t, &q, i)
		if err := tcpCl.Do(&q, &resp); err != nil || resp.Status != StatusOK {
			t.Fatalf("tcp frame %d: status %v err %v", i, resp.Status, err)
		}
		tinyFrame(t, &q, i)
		if err := pipeCl.Do(&q, &resp); err != nil || resp.Status != StatusOK {
			t.Fatalf("pipe frame %d: status %v err %v", i, resp.Status, err)
		}
	}

	tcpCl.Close()
	pipeCl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("serve: %v", err)
	}
	settleGoroutines(t, base)
}

// TestNoGoroutineLeakAfterChaos runs fault-injected traffic — partial
// writes, short reads, stutter, and a mid-stream connection reset —
// and checks the drain still joins everything: a condemned or reset
// connection must wind down its goroutines exactly like a polite one.
func TestNoGoroutineLeakAfterChaos(t *testing.T) {
	slow := newSlowDetector()
	close(slow.gate)
	base := runtime.NumGoroutine()

	srv, err := NewServer(Config{
		Shards:          1,
		DetectorFactory: func() detector.Detector { return slow },
		ReadTimeout:     2 * time.Second,
		WriteTimeout:    2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(lis) }()

	// Lossless faults: the stream is reshaped but intact, so the
	// exchange completes.
	cl := faultDial(t, lis.Addr().String(), FaultPlan{Seed: 5, MaxWriteChunk: 7, MaxReadChunk: 5, StutterEvery: 3, Stutter: time.Millisecond})
	cl.SetIOTimeout(5 * time.Second)
	var q DetectRequest
	var resp DetectResponse
	tinyFrame(t, &q, 1)
	if err := cl.Do(&q, &resp); err != nil || resp.Status != StatusOK {
		t.Fatalf("faulty exchange: status %v err %v", resp.Status, err)
	}
	cl.Close()

	// Mid-stream reset: the conn dies partway through a request write;
	// the server's reader must wind the connection down, not linger.
	reset := faultDial(t, lis.Addr().String(), FaultPlan{Seed: 9, ResetAfter: 30})
	reset.SetIOTimeout(time.Second)
	tinyFrame(t, &q, 2)
	if err := reset.Do(&q, &resp); err == nil {
		t.Fatal("exchange over a reset connection returned success")
	}
	reset.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("serve: %v", err)
	}
	settleGoroutines(t, base)
}
