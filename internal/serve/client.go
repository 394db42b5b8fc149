package serve

import (
	"bufio"
	"io"
	"net"
	"sync"
	"time"
)

// Client speaks the serve wire protocol over any stream connection —
// a TCP socket (Dial) or the in-memory pipe of Server.InProcess. All
// of its buffers are reused, so a steady-state request/response loop
// allocates only in the caller's hands.
//
// Send and Recv are individually thread-safe (a reader goroutine can
// drain responses while another pipelines requests — the overload
// tests do exactly that), but responses arrive in per-user completion
// order, not send order: a pipelining caller must match them to
// requests by FrameID (one user's responses do arrive in that user's
// send order — the server's per-user FIFO contract). Do (one request,
// one response) assumes it is the only outstanding exchange on the
// connection.
//
// Latency vs. coalescing: Send flushes every request immediately —
// lowest latency, one write per frame. A pipelining load generator
// should Queue a burst and Flush once: requests coalesce into one
// write, the server coalesces the responses the same way, and with
// TCP_NODELAY set on both ends (Dial and Serve do) the burst still
// crosses the wire without Nagle/delayed-ACK stalls. An unflushed
// Queue is never sent — a caller that Queues and then waits on Recv
// without flushing deadlocks itself.
//
// By default I/O is unbounded: a server that accepts but never
// responds wedges Recv (and Do) forever. SetIOTimeout arms a
// per-operation deadline that turns such stalls into timeout errors.
type Client struct {
	rwc io.ReadWriteCloser

	// dl is non-nil when rwc supports deadlines (a real net.Conn); the
	// in-memory pipe of Server.InProcess does not. ioTimeout bounds each
	// conn read and write when set (SetIOTimeout) — without it a stalled
	// server wedges Recv and Do forever.
	dl        net.Conn
	ioTimeout time.Duration

	wmu     sync.Mutex
	bw      *bufio.Writer
	payload []byte
	wire    []byte

	rmu  sync.Mutex
	br   *bufio.Reader
	rbuf []byte
}

// NewClient wraps an established connection with the same explicitly
// sized I/O buffers the server uses (connReadBuf/connWriteBuf).
func NewClient(rwc io.ReadWriteCloser) *Client {
	c := &Client{
		rwc: rwc,
		bw:  bufio.NewWriterSize(rwc, connWriteBuf),
		br:  bufio.NewReaderSize(rwc, connReadBuf),
	}
	if nc, ok := rwc.(net.Conn); ok {
		c.dl = nc
	}
	return c
}

// SetIOTimeout bounds every subsequent conn read and write with a
// deadline (zero restores unbounded I/O). Without it, a peer that
// accepts but never responds wedges Recv — and therefore Do — forever;
// with it, the stalled exchange surfaces as a timeout error. No-op for
// non-deadline transports (Server.InProcess pipes).
func (c *Client) SetIOTimeout(d time.Duration) {
	c.wmu.Lock()
	c.rmu.Lock()
	c.ioTimeout = d
	c.rmu.Unlock()
	c.wmu.Unlock()
}

// armWrite arms the write deadline ahead of a buffered write or flush.
// Called under c.wmu.
func (c *Client) armWrite() {
	if c.dl == nil || c.ioTimeout <= 0 {
		return
	}
	c.dl.SetWriteDeadline(time.Now().Add(c.ioTimeout))
}

// armRead arms the read deadline ahead of a response read. Called
// under c.rmu.
func (c *Client) armRead() {
	if c.dl == nil || c.ioTimeout <= 0 {
		return
	}
	c.dl.SetReadDeadline(time.Now().Add(c.ioTimeout))
}

// Dial connects to a flexserve TCP address with TCP_NODELAY set:
// batching is the client's decision (Queue/Flush), not the kernel's.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return NewClient(conn), nil
}

// Send encodes, writes and flushes one detection request — the
// low-latency path: the request is on the wire when Send returns.
func (c *Client) Send(req *DetectRequest) error { return c.write(req, true) }

// Queue encodes one detection request into the client's write buffer
// without flushing — the coalescing path: a burst of Queue calls
// followed by one Flush crosses the wire in a single write (the buffer
// auto-flushes if the burst outgrows it). The request is NOT sent
// until Flush (or a buffer-filling later Queue); see the latency note
// on Client.
func (c *Client) Queue(req *DetectRequest) error { return c.write(req, false) }

// Flush writes out every queued request.
func (c *Client) Flush() error { return c.write(nil, true) }

// write is the client's one write: under the write mutex, with the
// write deadline armed first (a Queue burst that outgrows the buffer
// writes to the conn from here), it encodes req into the buffer (nil:
// nothing) and flushes when asked.
func (c *Client) write(req *DetectRequest, flush bool) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.armWrite()
	if req != nil {
		c.payload = req.AppendPayload(c.payload[:0])
		c.wire = AppendFrame(c.wire[:0], MsgDetect, c.payload)
		if _, err := c.bw.Write(c.wire); err != nil { //lint:ignore lockscope c.wmu is the shared stream's write serialization point; the hold is bounded by the I/O deadline (SetIOTimeout)
			return err
		}
	}
	if !flush {
		return nil
	}
	return c.bw.Flush() //lint:ignore lockscope same bounded serialization window under c.wmu
}

// Recv reads the next response into resp (reusing its storage).
func (c *Client) Recv(resp *DetectResponse) error {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	c.armRead()
	typ, payload, buf, err := ReadFrame(c.br, c.rbuf) //lint:ignore lockscope c.rmu is the shared stream's read serialization point; the hold is bounded by the I/O deadline (SetIOTimeout)
	c.rbuf = buf
	if err != nil {
		return err
	}
	if typ != MsgResult {
		return ErrType
	}
	return resp.Decode(payload)
}

// Do performs one request/response exchange. The caller must not have
// other requests outstanding on this client (pipeline with Send/Recv
// and FrameID matching instead).
func (c *Client) Do(req *DetectRequest, resp *DetectResponse) error {
	if err := c.Send(req); err != nil {
		return err
	}
	return c.Recv(resp)
}

// Close closes the underlying connection.
func (c *Client) Close() error { return c.rwc.Close() }
