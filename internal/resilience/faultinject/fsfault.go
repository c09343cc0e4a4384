package faultinject

// The storage half of the harness: an in-memory filesystem implementing
// wal.FS whose process can be "killed" at any byte of any write or in the
// middle of any fsync. Crash-matrix tests (internal/wal, internal/reldb,
// internal/audit) run a scripted workload against a MemFS, kill it at
// every record and byte boundary, reopen the surviving disk image and
// assert the store's recovery invariants.
//
// The durability model mirrors a POSIX file over a page cache:
//
//   - Write appends to the file's buffer; the bytes are *accepted* but not
//     yet durable.
//   - Sync marks everything buffered so far durable (fsync returning).
//   - A crash keeps all durable bytes. Accepted-but-unsynced bytes either
//     survive (the kernel happened to flush them — AfterCrash(false)) or
//     are lost (AfterCrash(true)). Both outcomes are legal on real
//     hardware, so crash tests assert their invariants under both.
//
// Two independent kill switches arm the crash: LimitWriteBytes kills the
// process at an exact byte offset of the global write stream (the write
// crossing the limit applies only the prefix that fits — a torn write);
// LimitSyncs kills it inside the n-th fsync (the fsync does not complete,
// so the bytes it covered remain non-durable). After either trips, every
// mutating operation returns ErrCrashed, exactly as a dead process
// performs no further I/O.

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"webdbsec/internal/wal"
)

// ErrCrashed is returned by every operation on a MemFS after its kill
// switch has tripped or Crash was called.
var ErrCrashed = errors.New("faultinject: simulated crash")

// MemFS is an in-memory wal.FS with crash injection. Safe for concurrent
// use.
type MemFS struct {
	mu      sync.Mutex
	files   map[string]*memFile
	crashed bool

	// writeLimit is the remaining accepted write bytes before the crash
	// (-1 = unarmed). syncLimit is the remaining completed fsyncs before a
	// crash mid-fsync (-1 = unarmed).
	writeLimit int64
	syncLimit  int64

	written int64
	syncs   int64

	// unreadable names the file whose ReadFile fails (FailReads).
	unreadable string
}

type memFile struct {
	data   []byte
	synced int
}

// NewMemFS returns an empty, unarmed filesystem.
func NewMemFS() *MemFS {
	return &MemFS{files: make(map[string]*memFile), writeLimit: -1, syncLimit: -1}
}

// LimitWriteBytes arms the write kill switch: after n more bytes are
// accepted, the write crossing the boundary applies only its first
// in-budget bytes and the filesystem crashes.
func (m *MemFS) LimitWriteBytes(n int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.writeLimit = n
}

// LimitSyncs arms the fsync kill switch: the (n+1)-th Sync call crashes
// before completing, leaving its bytes non-durable.
func (m *MemFS) LimitSyncs(n int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.syncLimit = n
}

// FailReads makes every later ReadFile of name fail: a file that turns
// unreadable under a running process, as opposed to one a crash tore.
func (m *MemFS) FailReads(name string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.unreadable = name
}

// Crash kills the filesystem immediately.
func (m *MemFS) Crash() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.crashed = true
}

// Crashed reports whether a kill switch has tripped.
func (m *MemFS) Crashed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.crashed
}

// BytesWritten returns the total bytes accepted across all files — the
// coordinate system for LimitWriteBytes crash points.
func (m *MemFS) BytesWritten() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.written
}

// SyncCount returns the number of completed fsyncs — the coordinate system
// for LimitSyncs crash points.
func (m *MemFS) SyncCount() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.syncs
}

// AfterCrash returns the disk image a restarted process would find: a
// fresh, unarmed MemFS holding each file's durable bytes plus — when
// dropUnsynced is false — the accepted-but-unsynced tail. dropUnsynced
// true models the page cache dying with the machine; false models a
// process-only crash where the kernel flushed everything accepted.
func (m *MemFS) AfterCrash(dropUnsynced bool) *MemFS {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := NewMemFS()
	for name, f := range m.files {
		keep := len(f.data)
		if dropUnsynced {
			keep = f.synced
		}
		out.files[name] = &memFile{
			data:   append([]byte(nil), f.data[:keep]...),
			synced: keep,
		}
	}
	return out
}

// memHandle is an open writable file.
type memHandle struct {
	fs     *MemFS
	f      *memFile
	closed bool
}

// Create implements wal.FS.
func (m *MemFS) Create(name string) (wal.File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return nil, ErrCrashed
	}
	f := &memFile{}
	m.files[name] = f
	return &memHandle{fs: m, f: f}, nil
}

func (h *memHandle) Write(p []byte) (int, error) {
	m := h.fs
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed || h.closed {
		return 0, ErrCrashed
	}
	n := len(p)
	if m.writeLimit >= 0 && int64(n) > m.writeLimit {
		n = int(m.writeLimit)
		h.f.data = append(h.f.data, p[:n]...)
		m.written += int64(n)
		m.crashed = true
		return n, ErrCrashed
	}
	h.f.data = append(h.f.data, p...)
	m.written += int64(n)
	if m.writeLimit >= 0 {
		m.writeLimit -= int64(n)
	}
	return n, nil
}

func (h *memHandle) Sync() error {
	m := h.fs
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed || h.closed {
		return ErrCrashed
	}
	if m.syncLimit == 0 {
		// Killed inside fsync: the barrier never completed.
		m.crashed = true
		return ErrCrashed
	}
	if m.syncLimit > 0 {
		m.syncLimit--
	}
	h.f.synced = len(h.f.data)
	m.syncs++
	return nil
}

func (h *memHandle) Close() error {
	m := h.fs
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return ErrCrashed
	}
	h.closed = true
	return nil
}

// ReadFile implements wal.FS. Reads are allowed even after a crash so
// tests can inspect the corpse, but recovery should go through AfterCrash.
func (m *MemFS) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	if !ok {
		return nil, fmt.Errorf("faultinject: %s: file does not exist", name)
	}
	if name == m.unreadable {
		return nil, fmt.Errorf("faultinject: %s: injected read failure", name)
	}
	return append([]byte(nil), f.data...), nil
}

// WriteTrunc implements wal.FS: an atomic full-content replacement, fully
// durable when it returns nil.
func (m *MemFS) WriteTrunc(name string, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return ErrCrashed
	}
	if m.writeLimit >= 0 && int64(len(data)) > m.writeLimit {
		// The replacement is written via a temporary and renamed, so a
		// crash mid-way leaves the original untouched.
		m.crashed = true
		return ErrCrashed
	}
	if m.writeLimit >= 0 {
		m.writeLimit -= int64(len(data))
	}
	m.written += int64(len(data))
	m.files[name] = &memFile{data: append([]byte(nil), data...), synced: len(data)}
	return nil
}

// Rename implements wal.FS; atomic.
func (m *MemFS) Rename(oldname, newname string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return ErrCrashed
	}
	f, ok := m.files[oldname]
	if !ok {
		return fmt.Errorf("faultinject: rename %s: file does not exist", oldname)
	}
	delete(m.files, oldname)
	m.files[newname] = f
	return nil
}

// Remove implements wal.FS.
func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return ErrCrashed
	}
	if _, ok := m.files[name]; !ok {
		return fmt.Errorf("faultinject: remove %s: file does not exist", name)
	}
	delete(m.files, name)
	return nil
}

// List implements wal.FS.
func (m *MemFS) List() ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.files))
	for name := range m.files {
		out = append(out, name)
	}
	sort.Strings(out)
	return out, nil
}

var _ wal.FS = (*MemFS)(nil)
