package xmldoc

import "testing"

func genDoc(name string) *Document {
	return NewBuilder(name, "root").Element("leaf", "x").Freeze()
}

func TestStoreGenerations(t *testing.T) {
	s := NewStore()
	if s.Generation() != 0 {
		t.Fatalf("fresh store generation = %d", s.Generation())
	}
	s.Put(genDoc("a.xml"))
	g1 := s.Generation()
	if g1 == 0 {
		t.Fatal("Put did not advance the store generation")
	}
	da1 := s.DocGeneration("a.xml")

	s.Put(genDoc("b.xml"))
	if s.DocGeneration("a.xml") != da1 {
		t.Error("putting b.xml changed a.xml's generation")
	}
	s.Put(genDoc("a.xml"))
	if s.DocGeneration("a.xml") <= da1 {
		t.Error("re-Put did not advance the document generation")
	}
	if s.Generation() <= g1 {
		t.Error("re-Put did not advance the store generation")
	}

	g2 := s.Generation()
	da2 := s.DocGeneration("a.xml")
	s.Remove("a.xml")
	if s.Generation() <= g2 {
		t.Error("Remove did not advance the store generation")
	}
	if s.DocGeneration("a.xml") <= da2 {
		t.Error("Remove did not advance the document generation")
	}
}

func TestStoreSetsOf(t *testing.T) {
	s := NewStore()
	s.Put(genDoc("a.xml"))
	s.Put(genDoc("b.xml"))
	if got := s.SetsOf("a.xml"); got != nil {
		t.Fatalf("SetsOf before membership = %v, want nil", got)
	}
	s.AddToSet("s2", "a.xml")
	s.AddToSet("s1", "a.xml")
	s.AddToSet("s1", "b.xml")
	got := s.SetsOf("a.xml")
	if len(got) != 2 || got[0] != "s1" || got[1] != "s2" {
		t.Fatalf("SetsOf(a.xml) = %v, want [s1 s2] sorted", got)
	}
	if got := s.SetsOf("b.xml"); len(got) != 1 || got[0] != "s1" {
		t.Fatalf("SetsOf(b.xml) = %v, want [s1]", got)
	}
	// The reverse index must agree with the forward one.
	for _, set := range s.SetsOf("a.xml") {
		if !s.SetContains(set, "a.xml") {
			t.Errorf("SetsOf lists %s but SetContains disagrees", set)
		}
	}
}

func TestAddToSetAdvancesGeneration(t *testing.T) {
	s := NewStore()
	s.Put(genDoc("a.xml"))
	g := s.Generation()
	s.AddToSet("s1", "a.xml")
	if s.Generation() <= g {
		t.Error("AddToSet did not advance the store generation")
	}
}

// TestSnapshotUnaffectedByLaterMutations: the MVCC contract — a pinned
// snapshot keeps reporting the (generation, document, membership) state
// it was taken at, no matter what the store does afterwards. This is
// what makes generation-keyed decision caching sound: the generation a
// reader observes and the content it reads come from the same immutable
// version.
func TestSnapshotUnaffectedByLaterMutations(t *testing.T) {
	s := NewStore()
	s.Put(genDoc("a.xml"))
	s.AddToSet("s1", "a.xml")
	sn := s.Snapshot()
	defer sn.Release()
	gen, docGen := sn.Generation(), sn.DocGeneration("a.xml")
	doc, ok := sn.Get("a.xml")
	if !ok {
		t.Fatal("snapshot missing a.xml")
	}

	// Every kind of mutation the store supports.
	s.Put(genDoc("a.xml"))
	s.Put(genDoc("b.xml"))
	s.AddToSet("s2", "a.xml")
	s.Remove("a.xml")

	if s.Generation() <= gen {
		t.Fatal("live store generation did not advance past the snapshot")
	}
	if sn.Generation() != gen {
		t.Errorf("snapshot generation moved: %d -> %d", gen, sn.Generation())
	}
	if sn.DocGeneration("a.xml") != docGen {
		t.Errorf("snapshot doc generation moved: %d -> %d", docGen, sn.DocGeneration("a.xml"))
	}
	if got, ok := sn.Get("a.xml"); !ok || got != doc {
		t.Error("snapshot no longer returns the pinned document object")
	}
	if got := sn.SetsOf("a.xml"); len(got) != 1 || got[0] != "s1" {
		t.Errorf("snapshot SetsOf(a.xml) = %v, want the pinned [s1]", got)
	}
	if sn.Len() != 1 {
		t.Errorf("snapshot Len = %d, want the pinned 1", sn.Len())
	}
	// The live store, meanwhile, reflects all of it.
	if _, ok := s.Get("a.xml"); ok {
		t.Error("live store still has the removed a.xml")
	}
	if _, ok := s.Get("b.xml"); !ok {
		t.Error("live store missing b.xml")
	}
}
