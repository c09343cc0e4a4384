// Testdata for the guardedby analyzer. Each `want "regexp"` comment is
// an expectation the diagnostic reported on that line must match; lines
// without one must stay silent.
package guardedby

import (
	"sync"
	"sync/atomic"
)

type counter struct {
	mu sync.Mutex
	n  int // seclint:guardedby mu
	// hits counts lookups per key.
	// seclint:guardedby mu
	hits map[string]int
	free int // unguarded: accessible anywhere
}

// bad reads n without the lock.
func (c *counter) bad() int {
	return c.n // want `c\.n \(counter\.n\) is guarded by c\.mu but the mutex is not held here`
}

// good holds the lock across the access; the deferred Unlock runs at
// return and does not clear the held state.
func (c *counter) good() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// afterUnlock releases the lock before the access.
func (c *counter) afterUnlock() int {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
	return c.n // want `c\.n \(counter\.n\) is guarded by c\.mu but the mutex is not held here`
}

// unguardedIsFree: fields without the annotation are never flagged.
func (c *counter) unguardedIsFree() int { return c.free }

// callerHolds documents the caller's lock, so the whole body is skipped.
//
// seclint:locked caller holds c.mu
func (c *counter) callerHolds() int { return c.n }

// lineWaiver proves by control flow what the lexical check cannot see —
// the Unlock above the access sits inside a returning branch — and says
// so on the access line.
func (c *counter) lineWaiver(cold bool) int {
	c.mu.Lock()
	if cold {
		c.mu.Unlock()
		return 0
	}
	// seclint:locked still held; the Unlock above is inside the returning branch
	v := c.n
	c.mu.Unlock()
	return v
}

// lockedElsewhere: a line-level seclint:locked covers its own line (and
// the one below), not the rest of the function — the negative case for
// the locked annotation.
func (c *counter) lockedElsewhere() int {
	v := c.hits["x"] // seclint:locked single-threaded setup path
	v++
	return v + c.hits["y"] // want `c\.hits \(counter\.hits\) is guarded by c\.mu but the mutex is not held here`
}

// closure: a nested function literal does not inherit the creator's
// textual lock state — it may run on another goroutine.
func (c *counter) closure() func() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return func() int {
		return c.n // want `c\.n \(counter\.n\) is guarded by c\.mu but the mutex is not held here`
	}
}

// bump: locking one receiver's mutex says nothing about another's.
func bump(a, b *counter) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.n++
	b.n++ // want `b\.n \(counter\.n\) is guarded by b\.mu but the mutex is not held here`
}

// versioned models the MVCC publication discipline: the current-version
// pointer is Loaded lock-free and Stored only under the writer mutex.
type versioned struct {
	mu  sync.Mutex
	cur atomic.Pointer[counter] // seclint:atomicptr mu
}

// loadAnywhere: Load is the lock-free read path — never flagged.
func (v *versioned) loadAnywhere() *counter {
	return v.cur.Load()
}

// storeUnlocked installs a version without the writer mutex.
func (v *versioned) storeUnlocked(c *counter) {
	v.cur.Store(c) // want `v\.cur \(versioned\.cur\) is an atomic pointer published under v\.mu`
}

// storeLocked installs under the mutex; the deferred Unlock runs at
// return and does not clear the held state.
func (v *versioned) storeLocked(c *counter) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.cur.Store(c)
}

// swapUnlocked: every publishing method needs the mutex, not just Store.
func (v *versioned) swapUnlocked(c *counter) *counter {
	return v.cur.Swap(c) // want `v\.cur \(versioned\.cur\) is an atomic pointer published under v\.mu`
}

// constructorOwns: a seclint:locked function owns the value exclusively
// (pre-publication), so installs are free.
//
// seclint:locked v is not yet published
func constructorOwns() *versioned {
	v := &versioned{}
	v.cur.Store(&counter{})
	return v
}

// escapeIsFlagged: any non-method use of the pointer field (aliasing it
// out from under the discipline) requires the mutex too.
func (v *versioned) escapeIsFlagged() *atomic.Pointer[counter] {
	return &v.cur // want `v\.cur \(versioned\.cur\) is an atomic pointer published under v\.mu`
}

// cell models the generic version cell (internal/mvcc): the mutex is the
// owner's, lent by pointer, and the guarded fields' types mention the type
// parameter — inside the methods they are fields of an instantiation, which
// must still resolve to the annotated declarations.
type cell[T any] struct {
	mu       *sync.Mutex
	cur      atomic.Pointer[T] // seclint:atomicptr mu
	retained []*T              // seclint:guardedby mu
}

func (c *cell[T]) load() *T { return c.cur.Load() }

func (c *cell[T]) installUnlocked(v *T) {
	c.retained = append(c.retained, c.cur.Load()) // want `c\.retained \(cell\.retained\) is guarded by c\.mu` `c\.retained \(cell\.retained\) is guarded by c\.mu`
	c.cur.Store(v)                                // want `c\.cur \(cell\.cur\) is an atomic pointer published under c\.mu`
}

func (c *cell[T]) retainedLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.retained)
}

// seclint:locked caller holds the owner's lock
func (c *cell[T]) install(v *T) {
	c.retained = append(c.retained, c.cur.Load())
	c.cur.Store(v)
}
