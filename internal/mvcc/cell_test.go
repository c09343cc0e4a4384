package mvcc

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// owner is the minimal writer side of a cell: a mutex and installs under it.
type owner struct {
	mu   sync.Mutex
	cell Cell[int]
}

func newOwner() *owner {
	o := &owner{}
	o.cell.Init(&o.mu, 0)
	return o
}

func (o *owner) install(v int) {
	o.mu.Lock()
	o.cell.Install(v)
	o.mu.Unlock()
}

// TestPinRetentionAndReclaim: a pin keeps exactly its version alive;
// unpinned superseded versions are swept at the next install, and releasing
// the pin lets its version go too. Readers never block writers — installs
// continue while the pin is held — and retention is bounded by the pins
// actually outstanding.
func TestPinRetentionAndReclaim(t *testing.T) {
	o := newOwner()
	o.install(1)
	var pin Pin[int]
	o.cell.Pin(&pin)

	// Two installs while pinned: the pinned version is retained, the
	// intermediate (unpinned) one is reclaimed by the writer-driven sweep.
	o.install(2)
	o.install(3)
	if got := *pin.Value(); got != 1 {
		t.Fatalf("pinned value moved to %d, want 1", got)
	}
	if got := *o.cell.Load(); got != 3 {
		t.Fatalf("Load = %d, want the latest install 3", got)
	}
	st := o.cell.Stats()
	if st.Retained != 1 {
		t.Fatalf("Retained = %d while one version pinned, want 1", st.Retained)
	}
	if st.Pinned != 1 {
		t.Fatalf("Pinned = %d, want 1", st.Pinned)
	}
	if st.Reclaimed == 0 {
		t.Fatal("intermediate unpinned version was never reclaimed")
	}

	pin.Release()
	pin.Release() // idempotent: a second release must not unpin twice
	o.install(4)
	st = o.cell.Stats()
	if st.Retained != 0 {
		t.Fatalf("Retained = %d after release and install, want 0", st.Retained)
	}
	if st.Pinned != 0 {
		t.Fatalf("Pinned = %d after release, want 0", st.Pinned)
	}
	if st.Installed != 4 || st.Installed != st.Reclaimed {
		t.Fatalf("Installed = %d, Reclaimed = %d; want 4 installs, all superseded versions reclaimed", st.Installed, st.Reclaimed)
	}
}

// TestPinUnderWriterLock: the checkpoint pattern — pinning inside the
// writer's critical section — is the same lock-free Pin, and fences the
// version that was current in that section.
func TestPinUnderWriterLock(t *testing.T) {
	o := newOwner()
	o.install(7)
	var pin Pin[int]
	o.mu.Lock()
	o.cell.Pin(&pin)
	o.mu.Unlock()
	o.install(8)
	if got := *pin.Value(); got != 7 {
		t.Fatalf("pinned %d, want 7", got)
	}
	pin.Release()
}

// accounted reports whether the cell still accounts for p's version: it is
// the current one or sits on the retained list.
func (o *owner) accounted(p *Pin[int]) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.cell.cur.Load() == p.v {
		return true
	}
	for _, v := range o.cell.retained {
		if v == p.v {
			return true
		}
	}
	return false
}

// TestPinRacesInstall drives the lose-the-pin-race retry: many more pinners
// than CPUs load a version while an installer supersedes and sweeps it, so
// some pinner is descheduled between its load and its increment and comes
// back to a version the sweep has already counted reclaimable. Pin must
// notice and retry: every pin it hands out is on a version the cell still
// accounts for. The window is a few instructions wide; the race detector's
// instrumentation is what makes it reachable in a short test (with the
// re-check removed this fails within the budget under -race).
func TestPinRacesInstall(t *testing.T) {
	o := newOwner()
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for v := 1; !stop.Load(); v++ {
			o.install(v)
		}
	}()
	var pins, lost atomic.Int64
	for g := 0; g < 8*runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				var p Pin[int]
				o.cell.Pin(&p)
				pins.Add(1)
				if !o.accounted(&p) {
					lost.Add(1)
				}
				p.Release()
			}
		}()
	}
	time.Sleep(300 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	if n := lost.Load(); n != 0 {
		t.Fatalf("%d of %d pins landed on a version already swept", n, pins.Load())
	}

	// Every pin was released: one more install sweeps the rest.
	o.install(-1)
	if st := o.cell.Stats(); st.Retained != 0 || st.Pinned != 0 || st.Reclaimed != st.Installed {
		t.Fatalf("after releasing every pin: %+v, want nothing retained or pinned", st)
	}
}
