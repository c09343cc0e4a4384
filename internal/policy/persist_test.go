package policy

import (
	"fmt"
	"reflect"
	"testing"

	"webdbsec/internal/credential"
	"webdbsec/internal/resilience/faultinject"
	"webdbsec/internal/wal"
)

func openBase(t *testing.T, fs wal.FS) *Base {
	t.Helper()
	w, err := wal.Open(wal.Options{FS: fs, Policy: wal.SyncAlways})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	b, err := OpenBase(nil, w)
	if err != nil {
		t.Fatalf("OpenBase: %v", err)
	}
	return b
}

func persistTestPolicy(name, role, path string) *Policy {
	return &Policy{
		Name:    name,
		Subject: SubjectSpec{Roles: []string{role}},
		Object:  ObjectSpec{Doc: "ward.xml", Path: path},
		Priv:    Read,
		Sign:    Permit,
		Prop:    Cascade,
	}
}

// assertBaseEqual compares two bases by generation and by the persisted
// form of every policy (compiled fields excluded by construction).
func assertBaseEqual(t *testing.T, a, b *Base, desc string) {
	t.Helper()
	if a.Generation() != b.Generation() {
		t.Fatalf("%s: generation %d vs %d", desc, a.Generation(), b.Generation())
	}
	if a.Len() != b.Len() {
		t.Fatalf("%s: %d policies vs %d", desc, a.Len(), b.Len())
	}
	pa, pb := a.All(), b.All()
	for i := range pa {
		if !reflect.DeepEqual(persistPolicy(pa[i]), persistPolicy(pb[i])) {
			t.Fatalf("%s: policy %d differs:\n%+v\nvs\n%+v", desc, i, persistPolicy(pa[i]), persistPolicy(pb[i]))
		}
	}
}

func TestBaseJournalRoundTrip(t *testing.T) {
	fs := faultinject.NewMemFS()
	b := openBase(t, fs)
	cred, err := credential.Compile("employee.years >= '3'")
	if err != nil {
		t.Fatal(err)
	}
	p := persistTestPolicy("senior-read", "staff", "//patient")
	p.Subject.CredExpr = cred
	if err := b.Add(p); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(persistTestPolicy("deny-disease", "staff", "//disease")); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(persistTestPolicy("doomed", "temp", "//name")); err != nil {
		t.Fatal(err)
	}
	if !b.Remove("doomed") {
		t.Fatal("Remove failed")
	}
	if err := b.Err(); err != nil {
		t.Fatalf("journal error: %v", err)
	}

	b2 := openBase(t, fs)
	assertBaseEqual(t, b, b2, "journal replay")
	// The restored credential expression still evaluates: it was persisted
	// as source and recompiled.
	restored := b2.All()
	found := false
	for _, p := range restored {
		if p.Name == "senior-read" {
			found = true
			if p.Subject.CredExpr == nil {
				t.Fatal("credential expression lost")
			}
		}
	}
	if !found {
		t.Fatal("senior-read not restored")
	}
}

func TestBaseCheckpointAndTail(t *testing.T) {
	fs := faultinject.NewMemFS()
	b := openBase(t, fs)
	b.MustAdd(persistTestPolicy("p1", "staff", "//patient"))
	b.MustAdd(persistTestPolicy("p2", "staff", "//name"))
	if err := b.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	// Post-checkpoint journal tail.
	b.MustAdd(persistTestPolicy("p3", "nurse", "//disease"))
	b.Remove("p1")

	b2 := openBase(t, fs)
	assertBaseEqual(t, b, b2, "snapshot+tail")
	// Generations restored exactly: a generation-keyed cache entry from
	// before the restart keys the same state after it.
	if b2.Generation() != 4 {
		t.Fatalf("Generation = %d, want 4 (2 adds + checkpoint-surviving adds/removes)", b2.Generation())
	}
}

// TestBaseCrashRecovery: killed at any byte of the journal stream, the
// base recovers to a prefix of its mutation history with the matching
// generation — never a torn policy, never a generation ahead of the state.
func TestBaseCrashRecovery(t *testing.T) {
	script := func(fs *faultinject.MemFS) *Base {
		w, err := wal.Open(wal.Options{FS: fs, Policy: wal.SyncAlways})
		if err != nil {
			return nil
		}
		b, err := OpenBase(nil, w)
		if err != nil {
			return nil
		}
		b.Add(persistTestPolicy("p1", "staff", "//patient"))
		b.Add(persistTestPolicy("p2", "staff", "//name"))
		b.Checkpoint() // seclint:exempt crash workload: a fault-injected checkpoint may legally fail; the invariants are checked on the recovered image
		b.Remove("p1")
		b.Add(persistTestPolicy("p3", "nurse", "//disease"))
		return b
	}
	dry := faultinject.NewMemFS()
	script(dry)
	total := dry.BytesWritten()
	for b := int64(0); b <= total; b += 11 {
		fs := faultinject.NewMemFS()
		fs.LimitWriteBytes(b)
		script(fs)
		for _, drop := range []bool{false, true} {
			img := fs.AfterCrash(drop)
			rb := openBase(t, img)
			// The generation equals the number of surviving mutations: each
			// journal entry carries its post-mutation generation and they
			// are replayed in order.
			gen := rb.Generation()
			if gen > 4 {
				t.Fatalf("crash at %d: generation %d beyond history", b, gen)
			}
			// State must equal the prefix of the script at that generation.
			wantLen := map[uint64]int{0: 0, 1: 1, 2: 2, 3: 1, 4: 2}[gen]
			if rb.Len() != wantLen {
				t.Fatalf("crash at %d: gen %d with %d policies, want %d", b, gen, rb.Len(), wantLen)
			}
		}
	}
}

// TestOpenBaseRefusesUnreadableSegment: a journal segment that cannot be
// read back after the log itself opened must fail OpenBase — never yield a
// base missing the mutations that segment held.
func TestOpenBaseRefusesUnreadableSegment(t *testing.T) {
	fs := faultinject.NewMemFS()
	opts := wal.Options{FS: fs, Policy: wal.SyncAlways, SegmentBytes: 512}
	w, err := wal.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := OpenBase(nil, w)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		b.MustAdd(persistTestPolicy(fmt.Sprintf("p%d", i), "staff", "//patient"))
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
		if b2, err := OpenBase(nil, w2); err == nil {
			t.Fatalf("%s unreadable: OpenBase returned a base with %d of 12 policies", seg, b2.Len())
		}
	}
}
