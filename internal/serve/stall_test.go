package serve

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"
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
// missing I/O deadlines: a server that accepts and reads but never
// responds used to wedge Do forever, because Recv blocked without a
// read deadline. With SetIOTimeout the stall surfaces as a timeout
// error in bounded time.
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
