// Package mvcc holds the one version cell behind every multi-versioned
// structure in the stack (reldb.Database, xmldoc.Store): an immutable value
// published behind an atomic pointer, read lock-free, pinned by snapshots,
// and reclaimed by the writer once no snapshot holds it.
//
// The owner keeps its own writer mutex — it guards more than the cell — and
// lends it to the cell at construction. Writers call Install with that
// mutex held, in the same critical section that orders the mutation (the
// WAL append assigning its LSN), so version order is log order. Readers
// only touch atomics: Load is one atomic load; Pin is a load, an increment
// and a re-check. A reader that loses the pin race with an install retries
// on the fresh version, so a pin provably lands on a version that was
// current while pinned — the sweep can never have counted it reclaimable.
// (The Go GC is the actual deallocator; the sweep is bookkeeping that
// bounds the retained list and feeds Stats.)
package mvcc

import (
	"sync"
	"sync/atomic"
)

// version is one published value with its pin count.
type version[T any] struct {
	val  T
	pins atomic.Int64
}

// Cell publishes successive immutable values of T. T is stored by value
// inside the cell's version record and must not be mutated after Install.
// A Cell must be Init-ed before use and not copied afterwards.
type Cell[T any] struct {
	// mu is the owner's writer lock: it serializes Install (and whatever
	// else the owner orders with it). The read path never takes it.
	mu *sync.Mutex
	// cur is the published version; Load/Pin read it lock-free.
	cur atomic.Pointer[version[T]] // seclint:atomicptr mu
	// retained holds superseded versions until no Pin holds them.
	retained []*version[T] // seclint:guardedby mu
	stats    Stats         // seclint:guardedby mu
}

// Stats counts the version lifecycle.
type Stats struct {
	// Installed counts Install calls (the initial value is not counted).
	Installed uint64
	// Reclaimed counts superseded versions swept with no pin on them.
	Reclaimed uint64
	// Retained is the number of superseded versions still held for pins
	// (or not yet swept: the sweep runs at Install).
	Retained int
	// Pinned is the total pin count across the current and the retained
	// versions.
	Pinned int64
}

// Init makes the cell publish initial. mu is the owner's writer lock,
// which every Install call must hold. The cell is a field of its owner, so
// reads reach the version pointer without an extra hop; Init runs once, in
// the owner's constructor.
//
// seclint:locked the owner is not yet published; no other goroutine holds a reference before its constructor returns
func (c *Cell[T]) Init(mu *sync.Mutex, initial T) {
	c.mu = mu
	c.cur.Store(&version[T]{val: initial})
}

// Load returns the current value. Lock-free; the value is immutable, but
// two Loads may observe different versions — Pin for a consistent view
// across several reads.
func (c *Cell[T]) Load() *T { return &c.cur.Load().val }

// Pin is a held reference to one version. The zero Pin holds nothing; a
// Pin must not be copied once filled.
type Pin[T any] struct {
	v        *version[T]
	released atomic.Bool
}

// Pin fills p with a reference to the current version. It never blocks,
// whatever installs, sweeps and checkpoints run; p lives in the caller's
// snapshot struct so pinning allocates nothing of its own.
func (c *Cell[T]) Pin(p *Pin[T]) {
	for {
		v := c.cur.Load()
		v.pins.Add(1)
		// An install may have superseded v between the Load and the pin —
		// and its sweep may already have counted v reclaimable. Re-check
		// and retry on the fresh version; the stale pin is dropped.
		if c.cur.Load() == v {
			p.v = v
			return
		}
		v.pins.Add(-1)
	}
}

// Value returns the pinned value.
func (p *Pin[T]) Value() *T { return &p.v.val }

// Release drops the reference so the version can be reclaimed. Idempotent;
// a leaked Pin delays bookkeeping but never blocks writers.
func (p *Pin[T]) Release() {
	if p.released.CompareAndSwap(false, true) {
		p.v.pins.Add(-1)
	}
}

// Install publishes val as the current version. The caller holds the
// owner's writer lock. The superseded version is retained until no Pin
// holds it; every Install sweeps the unpinned ones.
//
// seclint:locked caller holds the owner's writer lock (c.mu)
func (c *Cell[T]) Install(val T) {
	old := c.cur.Load()
	c.cur.Store(&version[T]{val: val})
	c.stats.Installed++
	c.retained = append(c.retained, old)
	kept := c.retained[:0]
	for _, v := range c.retained {
		if v.pins.Load() > 0 {
			kept = append(kept, v)
		} else {
			c.stats.Reclaimed++
		}
	}
	clear(c.retained[len(kept):])
	c.retained = kept
}

// Stats snapshots the lifecycle counters. It takes the owner's writer
// lock, so it must not be called with that lock held.
func (c *Cell[T]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Retained = len(c.retained)
	st.Pinned = c.cur.Load().pins.Load()
	for _, v := range c.retained {
		st.Pinned += v.pins.Load()
	}
	return st
}
