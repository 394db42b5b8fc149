package serve

import (
	"context"
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"flexcore/internal/detector"
)

// blackHole listens and swallows: every accepted connection is read
// and discarded, never answered — the stalled-server shape that used
// to wedge a deadline-less client forever.
func blackHole(t *testing.T) net.Listener {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var conns []net.Conn
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			conns = append(conns, conn)
			go io.Copy(io.Discard, conn)
		}
	}()
	t.Cleanup(func() {
		lis.Close()
		<-done
		for _, c := range conns {
			c.Close()
		}
	})
	return lis
}

// TestIOTimeoutBoundsStalledRecv is the regression for the client's
// missing I/O deadlines (found by the timeoutguard analyzer): a server
// that accepts and reads but never responds used to wedge Do forever,
// because Recv blocked without a read deadline. With SetIOTimeout the
// stall surfaces as a timeout error in bounded time.
func TestIOTimeoutBoundsStalledRecv(t *testing.T) {
	lis := blackHole(t)
	cl, err := Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.SetIOTimeout(100 * time.Millisecond)

	var q DetectRequest
	var resp DetectResponse
	tinyFrame(t, &q, 1)
	start := time.Now()
	err = cl.Do(&q, &resp)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("Do against a never-responding server returned success")
	}
	// SetIOTimeout's contract: the stall surfaces as the transport's
	// timeout error (not a framing error), and in bounded time.
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("want a timeout error, got %v", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("Do took %v against a stalled server — the deadline did not bound the read", elapsed)
	}
}

// stallOnceFront proxies to backend, except the first connection: that
// one is swallowed. A DoRetry client dialing the front sees one
// stalled exchange, then a healthy server on redial.
func stallOnceFront(t *testing.T, backend string) net.Listener {
	t.Helper()
	front, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var n atomic.Int64
	go func() {
		for {
			conn, err := front.Accept()
			if err != nil {
				return
			}
			if n.Add(1) == 1 {
				go io.Copy(io.Discard, conn) // swallow, never answer
				continue
			}
			up, err := net.Dial("tcp", backend)
			if err != nil {
				conn.Close()
				continue
			}
			go func() { io.Copy(up, conn); up.Close() }()
			go func() { io.Copy(conn, up); conn.Close() }()
		}
	}()
	t.Cleanup(func() { front.Close() })
	return front
}

// TestDoRetryRecoversFromStalledServer: the end-to-end shape of the
// fix. The first exchange stalls (no response); the armed I/O deadline
// turns the stall into a transport error; DoRetry redials and the
// retried frame completes against the healthy server. Without
// SetIOTimeout this test would hang in Recv on the first attempt.
func TestDoRetryRecoversFromStalledServer(t *testing.T) {
	slow := newSlowDetector()
	close(slow.gate)
	srv, err := NewServer(Config{Shards: 1, DetectorFactory: func() detector.Detector { return slow }})
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(lis) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-serveErr; err != nil {
			t.Errorf("serve: %v", err)
		}
	}()

	front := stallOnceFront(t, lis.Addr().String())
	cl, err := DialRetry(front.Addr().String(), RetryPolicy{Attempts: 3, Backoff: time.Millisecond, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.SetIOTimeout(200 * time.Millisecond)

	var q DetectRequest
	var resp DetectResponse
	tinyFrame(t, &q, 1)
	start := time.Now()
	retries, err := cl.DoRetry(&q, &resp)
	if err != nil {
		t.Fatalf("DoRetry through the stalled front: %v", err)
	}
	if retries < 1 {
		t.Fatalf("retries %d, want at least 1 (the first attempt must have timed out)", retries)
	}
	if resp.Status != StatusOK || resp.FrameID != 1 {
		t.Fatalf("status %v frame %d after recovery, want ok frame 1", resp.Status, resp.FrameID)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("recovery took %v — the stalled attempt was not deadline-bounded", elapsed)
	}
}
