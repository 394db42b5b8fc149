// Package lock is the lockscope fixture: blocking operations inside a
// mutex window — across branches, through defer, and transitively
// through package-local calls — versus the clean release-then-block
// patterns.
package lock

import (
	"sync"
	"time"
)

type counter struct {
	mu sync.Mutex
	rw sync.RWMutex
	n  int
	ch chan int
}

// sendUnderLock is the canonical deliberately-broken case: a blocking
// channel send inside the Lock/Unlock window.
func (c *counter) sendUnderLock(v int) {
	c.mu.Lock()
	c.ch <- v // want "channel send while c.mu is held"
	c.mu.Unlock()
}

// recvUnderDefer holds the mutex to function exit through defer; the
// receive is inside the window.
func (c *counter) recvUnderDefer() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return <-c.ch // want "channel receive while c.mu is held"
}

// sleepUnderRLock blocks under the read lock, stalling writers.
func (c *counter) sleepUnderRLock() {
	c.rw.RLock()
	time.Sleep(time.Millisecond) // want "time.Sleep while c.rw is held"
	c.rw.RUnlock()
}

// branchLeak releases on one branch only: at the merge the lock may
// still be held, so the select blocks under it.
func (c *counter) branchLeak(early bool) {
	c.mu.Lock()
	if early {
		c.mu.Unlock()
	}
	select { // want "blocking select while c.mu is held"
	case v := <-c.ch:
		c.n += v
	case c.ch <- c.n:
	}
	if !early {
		c.mu.Unlock()
	}
}

// drainUnderLock ranges over a channel while holding the lock.
func (c *counter) drainUnderLock() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for v := range c.ch { // want "range over channel while c.mu is held"
		c.n += v
	}
}

// blockingHelper blocks (no lock of its own, so no finding here), so
// calling it under a lock is a finding at the call site.
func (c *counter) blockingHelper() { c.ch <- 1 }

// transitive calls the blocking helper inside the window.
func (c *counter) transitive() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.blockingHelper() // want "call to blockingHelper, which blocks \\(channel send\\) while c.mu is held"
}

// releaseThenBlock is the clean pattern: every blocking operation
// happens after the window closes.
func (c *counter) releaseThenBlock(v int) int {
	c.mu.Lock()
	c.n += v
	n := c.n
	c.mu.Unlock()
	c.ch <- n
	time.Sleep(time.Microsecond)
	return <-c.ch
}

// nonBlockingUnderLock: a select with default never blocks, and plain
// arithmetic under the lock is what mutexes are for.
func (c *counter) nonBlockingUnderLock(v int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	select {
	case c.ch <- v:
		return true
	default:
		return false
	}
}

// bothBranchesRelease: the walker merges branches — released on every
// path means not held at the send.
func (c *counter) bothBranchesRelease(early bool) {
	c.mu.Lock()
	if early {
		c.n++
		c.mu.Unlock()
	} else {
		c.mu.Unlock()
	}
	c.ch <- c.n
}

// suppressed documents a provably bounded send under the lock.
func (c *counter) suppressed(v int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ch <- v //lint:ignore lockscope fixture: the channel is buffered and drained by the owner, the send cannot block under c.mu
}

// ignoreNamesOtherMutex holds c.rw under an ignore written for c.mu: a
// lockscope ignore silences only the mutex its reason names, so the
// finding stands.
func (c *counter) ignoreNamesOtherMutex(v int) {
	c.rw.Lock()
	defer c.rw.Unlock()
	//lint:ignore lockscope fixture: c.mu bounds this send; neither sc.rw nor c.rwx is the held mutex
	c.ch <- v // want "channel send while c.rw is held"
}
