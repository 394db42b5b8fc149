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
// responds wedges Recv (and Do/DoRetry) forever. SetIOTimeout arms a
// per-operation deadline that turns such stalls into timeout errors
// DoRetry can recover from.
type Client struct {
	rwc io.ReadWriteCloser

	// dl is non-nil when rwc supports deadlines (a real net.Conn); the
	// in-memory pipe of Server.InProcess does not. ioTimeout bounds each
	// conn read and write when set (SetIOTimeout) — without it a stalled
	// server wedges Recv, Do and DoRetry forever.
	dl        net.Conn
	ioTimeout time.Duration

	// addr is the redial target for DoRetry's transport-error recovery;
	// empty for clients wrapped around a non-dialable transport (pipes).
	addr   string
	policy RetryPolicy
	jit    uint64 // SplitMix64 jitter stream state (seeded, deterministic)

	wmu     sync.Mutex
	bw      *bufio.Writer
	payload []byte
	wire    []byte

	rmu  sync.Mutex
	br   *bufio.Reader
	rbuf []byte
}

// RetryPolicy shapes DialRetry and Client.DoRetry: jittered exponential
// backoff with a deterministic, seeded jitter stream (no global RNG —
// two clients with the same seed back off identically, which keeps
// load-generator runs reproducible).
type RetryPolicy struct {
	// Attempts is the total number of tries including the first
	// (default 4).
	Attempts int
	// Backoff is the delay before the first retry (default 2ms); it
	// doubles on each subsequent retry.
	Backoff time.Duration
	// MaxBackoff caps the per-retry delay (default 250ms).
	MaxBackoff time.Duration
	// Seed seeds the jitter stream.
	Seed uint64
}

// withDefaults resolves the zero-value knobs.
func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.Attempts <= 0 {
		p.Attempts = 4
	}
	if p.Backoff <= 0 {
		p.Backoff = 2 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 250 * time.Millisecond
	}
	return p
}

// splitmix advances a SplitMix64 state and returns the next value.
func splitmix(z *uint64) uint64 {
	*z += 0x9e3779b97f4a7c15
	x := *z
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
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
// accepts but never responds wedges Recv — and therefore Do and
// DoRetry — forever; with it, the stalled exchange surfaces as a
// timeout error, which DoRetry treats like any transport error
// (redialing when it can). No-op for non-deadline transports
// (Server.InProcess pipes).
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
func (c *Client) Send(req *DetectRequest) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := c.queueLocked(req); err != nil { //lint:ignore lockscope the write mutex is the shared stream's serialization point; the hold is bounded by the I/O deadline (SetIOTimeout)
		return err
	}
	return c.bw.Flush() //lint:ignore lockscope same bounded serialization window
}

// Queue encodes one detection request into the client's write buffer
// without flushing — the coalescing path: a burst of Queue calls
// followed by one Flush crosses the wire in a single write (the buffer
// auto-flushes if the burst outgrows it). The request is NOT sent
// until Flush (or a buffer-filling later Queue); see the latency note
// on Client.
func (c *Client) Queue(req *DetectRequest) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.queueLocked(req) //lint:ignore lockscope the write mutex is the shared stream's serialization point; the hold is bounded by the I/O deadline (SetIOTimeout)
}

// Flush writes out every queued request.
func (c *Client) Flush() error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.armWrite()
	return c.bw.Flush() //lint:ignore lockscope the write mutex is the shared stream's serialization point; the hold is bounded by the I/O deadline (SetIOTimeout)
}

// queueLocked encodes one request into the write buffer, arming the
// write deadline first: a Queue burst that outgrows the buffer flushes
// to the conn from here.
func (c *Client) queueLocked(req *DetectRequest) error {
	c.armWrite()
	c.payload = req.AppendPayload(c.payload[:0])
	c.wire = AppendFrame(c.wire[:0], MsgDetect, c.payload)
	_, err := c.bw.Write(c.wire)
	return err
}

// Recv reads the next response into resp (reusing its storage).
func (c *Client) Recv(resp *DetectResponse) error {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	c.armRead()
	typ, payload, buf, err := ReadFrame(c.br, c.rbuf) //lint:ignore lockscope the read mutex is the shared stream's serialization point; the hold is bounded by the I/O deadline (SetIOTimeout)
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

// DialRetry dials like Dial but retries transient dial failures under
// the policy, and arms the returned client with it so DoRetry inherits
// the same backoff shape and jitter stream.
func DialRetry(addr string, policy RetryPolicy) (*Client, error) {
	policy = policy.withDefaults()
	jit := policy.Seed
	var lastErr error
	for attempt := 0; attempt < policy.Attempts; attempt++ {
		if attempt > 0 {
			sleepBackoff(policy, attempt-1, &jit)
		}
		c, err := Dial(addr)
		if err == nil {
			c.addr = addr
			c.policy = policy
			c.jit = jit
			return c, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

// SetRetryPolicy arms a client built by NewClient/Dial with a retry
// policy for DoRetry (DialRetry does this automatically). Clients not
// built by DialRetry cannot redial, so DoRetry on them retries only
// StatusOverloaded responses, not transport errors.
func (c *Client) SetRetryPolicy(policy RetryPolicy) {
	c.policy = policy
	c.jit = policy.Seed
}

// DoRetry performs one request/response exchange with jittered-backoff
// retries: a StatusOverloaded response is retried after a backoff
// (explicit backpressure — the server asked the client to slow down),
// and a transport error redials when the client knows its address
// (DialRetry). Retrying after a transport error may make the server
// detect the same frame twice; that is safe because requests are
// idempotent by (UserID, FrameID) — detection is deterministic, so a
// duplicate yields bit-identical decisions, and the first response
// died with the old connection. Like Do, the caller must have no other
// exchange outstanding. It returns the number of retries consumed; on
// exhaustion the last response (e.g. still StatusOverloaded) or error
// is returned as-is.
func (c *Client) DoRetry(req *DetectRequest, resp *DetectResponse) (retries int, err error) {
	policy := c.policy.withDefaults()
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			sleepBackoff(policy, attempt-1, &c.jit)
		}
		err = c.Do(req, resp)
		if err == nil && resp.Status != StatusOverloaded {
			return attempt, nil
		}
		if attempt+1 >= policy.Attempts {
			return attempt, err
		}
		if err != nil {
			if c.addr == "" {
				return attempt, err
			}
			if derr := c.redial(); derr != nil {
				// The redial consumed this attempt; the next one redials
				// again after backoff (Do on the dead conn fails fast).
				err = derr
			}
		}
	}
}

// redial replaces the client's connection with a fresh dial, resetting
// both buffered ends (unflushed request bytes and any half-read
// response died with the old connection).
func (c *Client) redial() error {
	conn, err := net.Dial("tcp", c.addr)
	if err != nil {
		return err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	c.wmu.Lock()
	c.rmu.Lock()
	c.rwc.Close()
	c.rwc = conn
	c.dl = conn
	c.bw.Reset(conn)
	c.br.Reset(conn)
	c.rbuf = c.rbuf[:0]
	c.rmu.Unlock()
	c.wmu.Unlock()
	return nil
}

// sleepBackoff sleeps the jittered exponential delay of retry i
// (0-based): half the nominal delay fixed plus up to half drawn from
// the seeded jitter stream, capped at MaxBackoff.
func sleepBackoff(p RetryPolicy, i int, jit *uint64) {
	d := p.Backoff << uint(i)
	if d <= 0 || d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	half := d / 2
	time.Sleep(half + time.Duration(splitmix(jit)%uint64(half+1)))
}

// Close closes the underlying connection.
func (c *Client) Close() error { return c.rwc.Close() }
