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
//   - Write puts bytes at the handle's offset; they are *accepted* but not
//     yet durable.
//   - Truncate changes the file's size; growing it adds a hole that reads
//     as zeros. The new size is not durable either.
//   - Sync marks the file's bytes and size durable (fsync returning).
//   - Create, WriteTrunc, Rename and Remove are durable on return, as
//     wal.FS requires: a crash never undoes a directory change.
//   - A crash keeps all durable bytes and the durable size.
//     Accepted-but-unsynced changes either survive (the kernel happened to
//     flush them — AfterCrash(false)) or are lost (AfterCrash(true)). Both
//     outcomes are legal on real hardware, so crash tests assert their
//     invariants under both: a file extended and killed before its first
//     fsync is found full length, zeros past whatever was written, or
//     empty.
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
	"io"
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

	// unreadable names the file whose reads fail (FailReads).
	unreadable string
}

// memFile is one file. data holds the bytes up to the highest offset ever
// written; size is the apparent size, never below len(data), and the bytes
// past data are a hole that reads as zeros. synced and syncedSize are what
// the last Sync made durable of each.
type memFile struct {
	data               []byte
	size               int
	synced, syncedSize int
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

// FailReads makes every later ReadAt and ReadFile of name fail: a file that
// turns unreadable under a running process, as opposed to one a crash tore.
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
		keep, size := len(f.data), f.size
		if dropUnsynced {
			keep, size = f.synced, f.syncedSize
		}
		out.files[name] = &memFile{
			data: append([]byte(nil), f.data[:keep]...),
			size: size, synced: keep, syncedSize: size,
		}
	}
	return out
}

// memHandle is an open writable file; off is its write offset.
type memHandle struct {
	fs     *MemFS
	f      *memFile
	off    int
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
		h.writeAt(p[:n])
		m.written += int64(n)
		m.crashed = true
		return n, ErrCrashed
	}
	h.writeAt(p)
	m.written += int64(n)
	if m.writeLimit >= 0 {
		m.writeLimit -= int64(n)
	}
	return n, nil
}

// writeAt puts p at the handle's offset, over the hole if the file was
// extended, and advances the offset. Caller holds the MemFS lock.
func (h *memHandle) writeAt(p []byte) {
	f := h.f
	end := h.off + len(p)
	if end > len(f.data) {
		f.data = append(f.data, make([]byte, end-len(f.data))...)
	}
	copy(f.data[h.off:], p)
	h.off = end
	f.size = max(f.size, end)
}

// Truncate implements wal.File: growing the file adds a hole, shrinking it
// drops the bytes past size. Neither moves the write offset, and neither
// counts as written bytes — the LimitWriteBytes coordinates are writes only.
// The log only ever grows a file; a shrink is taken as durable at once.
func (h *memHandle) Truncate(size int64) error {
	m := h.fs
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed || h.closed {
		return ErrCrashed
	}
	f := h.f
	n := int(size)
	if n < len(f.data) {
		f.data = f.data[:n]
		f.synced = min(f.synced, n)
		f.syncedSize = min(f.syncedSize, n)
	}
	f.size = n
	return nil
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
	h.f.synced, h.f.syncedSize = len(h.f.data), h.f.size
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

// readable returns the file to read. Reads are allowed even after a crash
// so tests can inspect the corpse, but recovery should go through
// AfterCrash. Caller holds the MemFS lock.
func (m *MemFS) readable(name string) (*memFile, error) {
	f, ok := m.files[name]
	if !ok {
		return nil, fmt.Errorf("faultinject: %s: file does not exist", name)
	}
	if name == m.unreadable {
		return nil, fmt.Errorf("faultinject: %s: injected read failure", name)
	}
	return f, nil
}

// ReadAt implements wal.FS: it copies from the written extent and zero-fills
// only the part of the hole inside the requested range.
func (m *MemFS) ReadAt(name string, p []byte, off int64) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, err := m.readable(name)
	if err != nil {
		return 0, err
	}
	if off >= int64(f.size) {
		return 0, io.EOF
	}
	n := min(len(p), f.size-int(off))
	written := copy(p[:n], f.data[min(int(off), len(f.data)):])
	clear(p[written:n]) // the hole reads as zeros
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// ReadFile implements wal.FS.
func (m *MemFS) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, err := m.readable(name)
	if err != nil {
		return nil, err
	}
	out := make([]byte, f.size)
	copy(out, f.data)
	return out, nil
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
	n := len(data)
	m.files[name] = &memFile{data: append([]byte(nil), data...), size: n, synced: n, syncedSize: n}
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
