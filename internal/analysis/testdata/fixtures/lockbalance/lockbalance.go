// Package lockbalance exercises the lock-balance analyzer: early returns
// and fall-through paths that leave a mutex locked, and blocking
// operations under a held lock, are findings; balanced and deferred
// unlocks are near-misses.
package lockbalance

import (
	"sync"
	"time"
)

// Counter is the mutex-guarded fixture type.
type Counter struct {
	mu sync.Mutex
	rw sync.RWMutex
	n  int
	ch chan int
}

// LeakOnError forgets the unlock on the error path.
func (c *Counter) LeakOnError(fail bool) int {
	c.mu.Lock()
	if fail {
		return -1 // want lock-balance
	}
	n := c.n
	c.mu.Unlock()
	return n
}

// NeverUnlocked locks and falls off the end of the function.
func (c *Counter) NeverUnlocked() {
	c.mu.Lock() // want lock-balance
	c.n++
}

// NeverUnlockedCopy locks a mutex received by value and falls off the
// end: the finding tracks a bare identifier, not only a field selector.
func NeverUnlockedCopy(mu sync.Mutex) {
	mu.Lock() // want lock-balance
}

// SleepUnderLock holds the lock across a sleep.
func (c *Counter) SleepUnderLock() {
	c.mu.Lock()
	time.Sleep(time.Millisecond) // want lock-balance
	c.mu.Unlock()
}

// SendUnderLock sends on a channel while holding the lock.
func (c *Counter) SendUnderLock() {
	c.mu.Lock()
	c.ch <- c.n // want lock-balance
	c.mu.Unlock()
}

// LeakRead forgets the read unlock on the early return.
func (c *Counter) LeakRead(fail bool) int {
	c.rw.RLock()
	if fail {
		return -1 // want lock-balance
	}
	n := c.n
	c.rw.RUnlock()
	return n
}

// GoodEarlyReturn unlocks on every path: no finding.
func (c *Counter) GoodEarlyReturn(fail bool) int {
	c.mu.Lock()
	if fail {
		c.mu.Unlock()
		return -1
	}
	n := c.n
	c.mu.Unlock()
	return n
}

// GoodDeferred relies on the deferred unlock: no finding.
func (c *Counter) GoodDeferred() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// GoodSelectDefault polls without blocking under the lock: no finding.
func (c *Counter) GoodSelectDefault() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	select {
	case v := <-c.ch:
		return v
	default:
		return c.n
	}
}

// GoodAfterUnlock blocks only after releasing the lock: no finding.
func (c *Counter) GoodAfterUnlock() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
	time.Sleep(time.Millisecond)
}
