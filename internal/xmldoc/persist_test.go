package xmldoc

import (
	"fmt"
	"reflect"
	"testing"

	"webdbsec/internal/resilience/faultinject"
	"webdbsec/internal/wal"
)

func openStore(t *testing.T, fs wal.FS) *Store {
	t.Helper()
	w, err := wal.Open(wal.Options{FS: fs, Policy: wal.SyncAlways})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	s, err := OpenStore(w)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	return s
}

func persistTestDoc(name string, seed int) *Document {
	b := NewBuilder(name, "ward")
	for i := 0; i < 3; i++ {
		b.Begin("patient")
		b.Attrib("bed", string(rune('a'+i+seed)))
		b.Element("name", name)
		b.End()
	}
	return b.Freeze()
}

// assertStoreEqual compares stores by canonical document content, set
// membership and both generation counters.
func assertStoreEqual(t *testing.T, a, b *Store, desc string) {
	t.Helper()
	if a.Generation() != b.Generation() {
		t.Fatalf("%s: generation %d vs %d", desc, a.Generation(), b.Generation())
	}
	if !reflect.DeepEqual(a.Names(), b.Names()) {
		t.Fatalf("%s: names %v vs %v", desc, a.Names(), b.Names())
	}
	for _, name := range a.Names() {
		da, _ := a.Get(name)
		db, _ := b.Get(name)
		if da.Canonical() != db.Canonical() {
			t.Fatalf("%s: document %s differs", desc, name)
		}
		if a.DocGeneration(name) != b.DocGeneration(name) {
			t.Fatalf("%s: doc generation of %s: %d vs %d", desc, name,
				a.DocGeneration(name), b.DocGeneration(name))
		}
		if !reflect.DeepEqual(a.SetsOf(name), b.SetsOf(name)) {
			t.Fatalf("%s: sets of %s: %v vs %v", desc, name, a.SetsOf(name), b.SetsOf(name))
		}
	}
}

func TestStoreJournalRoundTrip(t *testing.T) {
	fs := faultinject.NewMemFS()
	s := openStore(t, fs)
	s.Put(persistTestDoc("a.xml", 0))
	s.Put(persistTestDoc("b.xml", 1))
	s.AddToSet("wards", "a.xml")
	s.AddToSet("wards", "b.xml")
	s.Put(persistTestDoc("a.xml", 5)) // overwrite: bumps a.xml's generation
	s.Put(persistTestDoc("doomed.xml", 2))
	s.Remove("doomed.xml")
	if err := s.Err(); err != nil {
		t.Fatalf("journal error: %v", err)
	}

	s2 := openStore(t, fs)
	assertStoreEqual(t, s, s2, "journal replay")
	if !s2.SetContains("wards", "a.xml") || !s2.SetContains("wards", "b.xml") {
		t.Fatal("set membership lost")
	}
	if _, ok := s2.Get("doomed.xml"); ok {
		t.Fatal("removed document resurrected")
	}
}

func TestStoreCheckpointAndTail(t *testing.T) {
	fs := faultinject.NewMemFS()
	s := openStore(t, fs)
	s.Put(persistTestDoc("a.xml", 0))
	s.AddToSet("wards", "a.xml")
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	s.Put(persistTestDoc("b.xml", 1))
	s.Remove("a.xml")

	s2 := openStore(t, fs)
	assertStoreEqual(t, s, s2, "snapshot+tail")
	if _, ok := s2.Get("a.xml"); ok {
		t.Fatal("post-checkpoint remove lost")
	}
	// A second checkpoint from the recovered store also round-trips.
	if err := s2.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint after recovery: %v", err)
	}
	s3 := openStore(t, fs)
	assertStoreEqual(t, s2, s3, "checkpoint after recovery")
}

// TestOpenStoreRefusesUnreadableSegment: a journal segment that cannot be
// read back after the log itself opened must fail OpenStore — never yield a
// store missing the documents that segment held.
func TestOpenStoreRefusesUnreadableSegment(t *testing.T) {
	fs := faultinject.NewMemFS()
	opts := wal.Options{FS: fs, Policy: wal.SyncAlways, SegmentBytes: 1024}
	w, err := wal.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	s, err := OpenStore(w)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		s.Put(persistTestDoc(fmt.Sprintf("d%d.xml", i), i))
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	segs, err := fs.List()
	if err != nil || len(segs) < 3 {
		t.Fatalf("want at least 3 segments, have %v (%v)", segs, err)
	}
	for _, seg := range segs {
		img := fs.AfterCrash(false)
		opts.FS = img
		w2, err := wal.Open(opts)
		if err != nil {
			t.Fatalf("wal.Open: %v", err)
		}
		img.FailReads(seg)
		if s2, err := OpenStore(w2); err == nil {
			t.Fatalf("%s unreadable: OpenStore returned a store with %d of 8 documents", seg, len(s2.Names()))
		}
	}
}
