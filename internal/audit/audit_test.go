package audit

import (
	"bytes"
	"slices"
	"sync"
	"testing"
)

// tamper overwrites an in-memory record's outcome, as an attacker with
// access to the process's memory would, without re-chaining successors.
// The slice is replaced, not written in place: Scan relies on published
// elements never changing.
func tamper(l *Log, seq int, outcome string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq < 0 || seq >= len(l.records) {
		return false
	}
	l.records = slices.Clone(l.records)
	l.records[seq].Outcome = outcome
	return true
}

func TestChainIntact(t *testing.T) {
	l := NewLog()
	l.Append("alice", "read", "/doc1", "permit")
	l.Append("bob", "write", "/doc1", "deny")
	l.Append("alice", "read", "/doc2", "permit")
	if got := l.Verify(); got != -1 {
		t.Fatalf("fresh log corrupt at %d", got)
	}
	if l.Len() != 3 {
		t.Errorf("len = %d", l.Len())
	}
	recs := l.Records()
	if recs[1].PrevHash != recs[0].Hash {
		t.Error("chain not linked")
	}
}

func TestTamperDetected(t *testing.T) {
	l := NewLog()
	l.Append("alice", "read", "/doc1", "deny")
	l.Append("alice", "read", "/doc1", "deny")
	l.Append("alice", "read", "/doc1", "deny")
	// The attacker flips a denial into a permit.
	if !tamper(l, 1, "permit") {
		t.Fatal("tamper hook failed")
	}
	if got := l.Verify(); got != 1 {
		t.Errorf("Verify = %d, want 1", got)
	}
	if tamper(l, 99, "x") {
		t.Error("tamper out of range succeeded")
	}
}

func TestEmptyLogVerifies(t *testing.T) {
	if got := NewLog().Verify(); got != -1 {
		t.Errorf("empty log corrupt at %d", got)
	}
}

func TestConcurrentAppends(t *testing.T) {
	l := NewLog()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				l.Append("w", "op", "obj", "ok")
			}
		}()
	}
	wg.Wait()
	if l.Len() != 800 {
		t.Errorf("len = %d", l.Len())
	}
	if got := l.Verify(); got != -1 {
		t.Errorf("concurrent log corrupt at %d", got)
	}
}

// TestV2HashIsInjective: the v1 preimage joins fields with "|", so moving
// a "|" across a field boundary keeps the hash; v2 length-prefixes every
// field.
func TestV2HashIsInjective(t *testing.T) {
	a := Record{Seq: 3, Actor: "ana", Action: "query", Object: "a|b", Outcome: "c"}
	b := Record{Seq: 3, Actor: "ana", Action: "query", Object: "a", Outcome: "b|c"}
	if hashV1(&a) != hashV1(&b) {
		t.Fatal("the v1 pair does not collide; the test no longer shows the ambiguity")
	}
	if hashV2(&a) == hashV2(&b) {
		t.Fatal("v2 hashes collide")
	}
}

// splitAt cuts s into five fields at the four cut positions packed in cuts
// (one byte each, reduced into s and sorted).
func splitAt(s string, cuts uint32) [5]string {
	var at [4]int
	for i := range at {
		at[i] = int(byte(cuts>>(8*i))) % (len(s) + 1)
	}
	slices.Sort(at[:])
	return [5]string{s[:at[0]], s[at[0]:at[1]], s[at[1]:at[2]], s[at[2]:at[3]], s[at[3]:]}
}

// FuzzAuditRecord: decoding any frame payload, and verifying what decodes,
// never panics; and two v2 preimages are equal only for equal field tuples.
// The second property is driven by cutting one text into five fields two
// ways — exactly the inputs a separator-joined preimage confuses.
func FuzzAuditRecord(f *testing.F) {
	f.Add([]byte(`{"V":2,"Seq":0,"Actor":"ana","Action":"query","Object":"SELECT age FROM patients","Outcome":"permit","PrevHash":"","Hash":""}`), "anaquerya|b|cpermit", uint32(0x0e0d0703), uint32(0x0e0b0703), uint64(1), uint64(1))
	f.Add([]byte(`{"Seq":0}`), "", uint32(0), uint32(0), uint64(0), uint64(1<<32))
	f.Add([]byte(`not json`), "||||", uint32(0x04030201), uint32(0x01020304), uint64(7), uint64(7))
	f.Fuzz(func(t *testing.T, payload []byte, text string, cuts1, cuts2 uint32, seq1, seq2 uint64) {
		if r, err := decodeRecord(payload); err == nil {
			var c chain
			c.extend(&r)
		}
		mk := func(fields [5]string, seq uint64) Record {
			return Record{V: 2, Seq: int(seq), Actor: fields[0], Action: fields[1], Object: fields[2], Outcome: fields[3], PrevHash: fields[4]}
		}
		a, b := mk(splitAt(text, cuts1), seq1), mk(splitAt(text, cuts2), seq2)
		if bytes.Equal(preimageV2(nil, &a), preimageV2(nil, &b)) != (a == b) {
			t.Fatalf("preimages equal = %v for records equal = %v:\n%+v\n%+v", !(a == b), a == b, a, b)
		}
	})
}
