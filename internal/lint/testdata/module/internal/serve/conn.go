// Package serve is the serve-scoped fixture package: timeoutguard
// (deadline-armed conn I/O), statuscase (exhaustive Status switches),
// wireoffset (frame tiling directives) and determinism without its
// wall-clock check all apply here because the fixture import path ends
// in internal/serve, mirroring the real serve package.
package serve

import (
	"bufio"
	"io"
	"time"
)

// fakeConn is deadline-capable by method set — the analyzer detects
// conn-ness structurally, so fixtures need no real sockets.
type fakeConn struct{}

func (fakeConn) Read(p []byte) (int, error)         { return len(p), nil }
func (fakeConn) Write(p []byte) (int, error)        { return len(p), nil }
func (fakeConn) SetReadDeadline(t time.Time) error  { return nil }
func (fakeConn) SetWriteDeadline(t time.Time) error { return nil }
func (fakeConn) SetDeadline(t time.Time) error      { return nil }

// peer owns a conn and its buffered endpoints, like serverConn/Client.
type peer struct {
	c      fakeConn
	br     *bufio.Reader
	bw     *bufio.Writer
	budget time.Duration
}

// armRead / armWrite are the transitive arming-helper pattern: calling
// them counts as arming the respective deadline.
func (p *peer) armRead(now time.Time)  { p.c.SetReadDeadline(now.Add(p.budget)) }
func (p *peer) armWrite(now time.Time) { p.c.SetWriteDeadline(now.Add(p.budget)) }

// nakedWrite is the canonical deliberately-broken case: a conn write
// with no deadline armed on any path.
func (p *peer) nakedWrite(b []byte) {
	p.c.Write(b) // want "conn write p.c.Write without a SetWriteDeadline"
}

// nakedRead blocks in io.ReadFull on the conn-backed reader, unarmed.
func (p *peer) nakedRead(b []byte) {
	io.ReadFull(p.br, b) // want "conn read io.ReadFull without a SetReadDeadline"
}

// armedWrite arms through the helper before buffering and flushing.
func (p *peer) armedWrite(b []byte, now time.Time) {
	p.armWrite(now)
	p.bw.Write(b)
	p.bw.Flush()
}

// branchArmed arms on one branch only — the merge point may be unarmed,
// so the read is not dominated.
func (p *peer) branchArmed(b []byte, fast bool, now time.Time) {
	if fast {
		p.armRead(now)
	}
	p.c.Read(b) // want "conn read p.c.Read without a SetReadDeadline"
}

// bothBranchesArm: arming on every incoming path dominates the read.
func (p *peer) bothBranchesArm(b []byte, fast bool, now time.Time) {
	if fast {
		p.armRead(now)
	} else {
		p.c.SetReadDeadline(now)
	}
	p.c.Read(b)
}

// readMessage does raw I/O on its plain io.Reader parameter, so the
// analyzer classifies it as a reader helper: handing it a conn-backed
// reader makes the call site a read site.
func readMessage(r io.Reader, b []byte) error {
	_, err := io.ReadFull(r, b)
	return err
}

// recvUnarmed reaches the helper with a conn-ish argument, unarmed.
func (p *peer) recvUnarmed(b []byte) {
	readMessage(p.br, b) // want "conn read readMessage without a SetReadDeadline"
}

// recvArmed is the same call dominated by the arming helper.
func (p *peer) recvArmed(b []byte, now time.Time) {
	p.armRead(now)
	readMessage(p.br, b)
}

// dualArmed: SetDeadline arms both directions at once.
func (p *peer) dualArmed(b []byte, now time.Time) {
	p.c.SetDeadline(now)
	p.c.Read(b)
	p.c.Write(b)
}

// Wrapper is a conn middleware: its receiver is itself
// deadline-capable, so its delegating Read is exempt — deadlines are
// armed by whoever owns the wrapper.
type Wrapper struct{ inner fakeConn }

func (w *Wrapper) Read(p []byte) (int, error)         { return w.inner.Read(p) }
func (w *Wrapper) Write(p []byte) (int, error)        { return w.inner.Write(p) }
func (w *Wrapper) SetReadDeadline(t time.Time) error  { return w.inner.SetReadDeadline(t) }
func (w *Wrapper) SetWriteDeadline(t time.Time) error { return w.inner.SetWriteDeadline(t) }
func (w *Wrapper) SetDeadline(t time.Time) error      { return w.inner.SetDeadline(t) }

// suppressed documents a loopback pipe that cannot stall.
func (p *peer) suppressed(b []byte) {
	p.bw.Write(b) //lint:ignore timeoutguard fixture: in-process loopback pipe, the peer cannot stall
	p.bw.Flush()  //lint:ignore timeoutguard fixture: in-process loopback pipe, the peer cannot stall
}
