package wal

import (
	"os"
	"path/filepath"
	"sort"
)

// File is the writable handle the log needs from its storage: sequential
// writes, a size change, an explicit durability barrier, and close. It is
// deliberately smaller than *os.File so a fault-injecting implementation
// (see internal/resilience/faultinject) can stand in for the disk and kill
// the process at any byte.
type File interface {
	// Write writes p at the handle's offset, which starts at 0 and
	// advances by what was written — a size change never moves it.
	Write(p []byte) (int, error)
	// Truncate sets the file's size (ftruncate): growing it appends zeros
	// without writing them, so a segment extended at creation is sparse.
	Truncate(size int64) error
	// Sync makes everything written so far, and the size, durable (fsync).
	Sync() error
	Close() error
}

// FS is the directory-rooted filesystem the log lives in. All names are
// flat (no separators); Rename must be atomic with respect to crashes —
// after a crash the target holds either its old or its new content, never
// a mixture. That is the only atomicity the log's checkpoint protocol
// relies on. Create, WriteTrunc, Rename and Remove are durable when they
// return: the directory entry they add, replace or drop survives a crash
// (a file's own fsync does not make its entry durable, so the production
// FS fsyncs the directory after each).
type FS interface {
	// Create opens name for writing at offset 0, truncating any existing
	// content.
	Create(name string) (File, error)
	// ReadAt reads len(p) bytes of name from offset off, with
	// io.ReaderAt's contract: fewer bytes only with an error, io.EOF at
	// the file's end. Segments are read only through it.
	ReadAt(name string, p []byte, off int64) (int, error)
	// ReadFile returns the full content of name: the small whole files
	// only (the checkpoint snapshot, replication's vote state).
	ReadFile(name string) ([]byte, error)
	// WriteTrunc atomically-enough replaces name's content with data:
	// implementations write a temporary file, sync it, and rename it over
	// name. Used to truncate a torn segment tail.
	WriteTrunc(name string, data []byte) error
	Rename(oldname, newname string) error
	Remove(name string) error
	// List returns the file names in the root, sorted.
	List() ([]string, error)
}

// dirFS is the production FS: a real directory.
type dirFS struct{ dir string }

// DirFS returns an FS rooted at dir, creating the directory if needed on
// first write.
func DirFS(dir string) FS { return &dirFS{dir: dir} }

func (d *dirFS) path(name string) string { return filepath.Join(d.dir, name) }

// syncDir fsyncs the directory after a change to it that returned err,
// making the entry it created, renamed or removed durable.
func (d *dirFS) syncDir(err error) error {
	if err != nil {
		return err
	}
	f, err := os.Open(d.dir)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

func (d *dirFS) Create(name string) (File, error) {
	if err := os.MkdirAll(d.dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(d.path(name))
	if err != nil {
		return nil, err
	}
	if err := d.syncDir(nil); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

func (d *dirFS) ReadAt(name string, p []byte, off int64) (int, error) {
	f, err := os.Open(d.path(name))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return f.ReadAt(p, off)
}

func (d *dirFS) ReadFile(name string) ([]byte, error) {
	return os.ReadFile(d.path(name))
}

func (d *dirFS) WriteTrunc(name string, data []byte) error {
	if err := os.MkdirAll(d.dir, 0o755); err != nil {
		return err
	}
	tmp := d.path(name + ".trunc")
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return d.Rename(name+".trunc", name)
}

func (d *dirFS) Rename(oldname, newname string) error {
	return d.syncDir(os.Rename(d.path(oldname), d.path(newname)))
}

func (d *dirFS) Remove(name string) error { return d.syncDir(os.Remove(d.path(name))) }

func (d *dirFS) List() ([]string, error) {
	ents, err := os.ReadDir(d.dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var out []string
	for _, e := range ents {
		if !e.IsDir() {
			out = append(out, e.Name())
		}
	}
	sort.Strings(out)
	return out, nil
}
