package faultinject

import (
	"errors"
	"testing"
)

func TestWriteBudgetTearsFinalWrite(t *testing.T) {
	fs := NewMemFS()
	fs.LimitWriteBytes(10)
	f, err := fs.Create("seg")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("12345678")); err != nil {
		t.Fatalf("write within budget: %v", err)
	}
	// This write crosses the budget: only the first 2 bytes land, then
	// the "machine" dies.
	if _, err := f.Write([]byte("ABCDEF")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("write over budget: err = %v, want ErrCrashed", err)
	}
	if !fs.Crashed() {
		t.Fatal("fs not marked crashed")
	}
	// Nothing was synced, so a crash that drops unsynced data loses it all…
	img := fs.AfterCrash(true)
	if data, err := img.ReadFile("seg"); err != nil || len(data) != 0 {
		t.Fatalf("drop-unsynced image: data = %q, err = %v", data, err)
	}
	// …while a lucky crash keeps the torn prefix.
	img2 := fs.AfterCrash(false)
	data, err := img2.ReadFile("seg")
	if err != nil || string(data) != "12345678AB" {
		t.Fatalf("keep-unsynced image: data = %q, err = %v", data, err)
	}
}

func TestSyncLimitCrashesWithoutDurability(t *testing.T) {
	fs := NewMemFS()
	fs.LimitSyncs(1)
	f, _ := fs.Create("seg")
	f.Write([]byte("first"))
	if err := f.Sync(); err != nil {
		t.Fatalf("first sync: %v", err)
	}
	f.Write([]byte("second"))
	// The second fsync dies before advancing the durable watermark.
	if err := f.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("second sync: err = %v, want ErrCrashed", err)
	}
	img := fs.AfterCrash(true)
	data, err := img.ReadFile("seg")
	if err != nil || string(data) != "first" {
		t.Fatalf("after crashed fsync: data = %q, err = %v", data, err)
	}
}

// TestTruncateExtendsWithHole models a segment extended at creation: the
// extend adds zeros that are not writes, later writes land over them at the
// handle's offset, and the size is durable only from the next Sync — before
// it a crash finds the file empty or full length, after it full length with
// only the synced bytes.
func TestTruncateExtendsWithHole(t *testing.T) {
	fs := NewMemFS()
	f, _ := fs.Create("seg")
	if err := f.Truncate(8); err != nil {
		t.Fatal(err)
	}
	if fs.BytesWritten() != 0 {
		t.Fatalf("extend counted %d written bytes", fs.BytesWritten())
	}
	if data, _ := fs.ReadFile("seg"); string(data) != "\x00\x00\x00\x00\x00\x00\x00\x00" {
		t.Fatalf("extended file reads %q, want 8 zeros", data)
	}
	f.Write([]byte("ab"))
	for drop, want := range map[bool]string{true: "", false: "ab\x00\x00\x00\x00\x00\x00"} {
		if data, _ := fs.AfterCrash(drop).ReadFile("seg"); string(data) != want {
			t.Fatalf("crash before the first sync, drop=%v: %q, want %q", drop, data, want)
		}
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("cd"))
	for drop, want := range map[bool]string{true: "ab\x00\x00\x00\x00\x00\x00", false: "abcd\x00\x00\x00\x00"} {
		if data, _ := fs.AfterCrash(drop).ReadFile("seg"); string(data) != want {
			t.Fatalf("crash after a sync, drop=%v: %q, want %q", drop, data, want)
		}
	}
	// A write past the extended size grows the file.
	f.Write([]byte("efghijk"))
	if data, _ := fs.ReadFile("seg"); string(data) != "abcdefghijk" {
		t.Fatalf("write past the end: %q", data)
	}
}

func TestOperationsAfterCrashFail(t *testing.T) {
	fs := NewMemFS()
	f, _ := fs.Create("seg")
	fs.Crash()
	if _, err := f.Write([]byte("x")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("write after crash: %v", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("sync after crash: %v", err)
	}
	if _, err := fs.Create("other"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("create after crash: %v", err)
	}
	if err := fs.Rename("seg", "x"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("rename after crash: %v", err)
	}
}

func TestRenameIsAtomic(t *testing.T) {
	fs := NewMemFS()
	if err := fs.WriteTrunc("snapshot.tmp", []byte("state")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("snapshot.tmp", "snapshot"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadFile("snapshot.tmp"); err == nil {
		t.Fatal("tmp file still present after rename")
	}
	data, err := fs.ReadFile("snapshot")
	if err != nil || string(data) != "state" {
		t.Fatalf("renamed file = %q, err = %v", data, err)
	}
	// WriteTrunc output is durable: it survives a drop-unsynced crash.
	fs.Crash()
	img := fs.AfterCrash(true)
	if data, _ := img.ReadFile("snapshot"); string(data) != "state" {
		t.Fatalf("snapshot lost across crash: %q", data)
	}
}

func TestCounters(t *testing.T) {
	fs := NewMemFS()
	f, _ := fs.Create("seg")
	f.Write([]byte("1234"))
	f.Sync()
	f.Write([]byte("56"))
	if got := fs.BytesWritten(); got != 6 {
		t.Fatalf("BytesWritten = %d, want 6", got)
	}
	if got := fs.SyncCount(); got != 1 {
		t.Fatalf("SyncCount = %d, want 1", got)
	}
}
