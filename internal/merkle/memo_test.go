package merkle

import (
	"bytes"
	"crypto/sha256"
	"math/rand"
	"sync"
	"testing"

	"webdbsec/internal/wsig"
	"webdbsec/internal/xmldoc"
)

// refHash is the structural hash as the package comment defines it,
// streamed through a hash.Hash — the implementation Hash had before it
// laid preimages out in one buffer.
func refHash(n *xmldoc.Node) []byte {
	h := sha256.New()
	switch n.Kind {
	case xmldoc.KindText:
		h.Write([]byte{0x02})
		h.Write([]byte(n.Value))
	case xmldoc.KindAttr:
		h.Write([]byte{0x01})
		h.Write([]byte(n.Name))
		h.Write([]byte{0x00})
		h.Write([]byte(n.Value))
	case xmldoc.KindElement:
		h.Write([]byte{0x00})
		h.Write([]byte(n.Name))
		h.Write([]byte{0x00})
		for _, a := range n.Attrs {
			h.Write(refHash(a))
		}
		for _, c := range n.Children {
			h.Write(refHash(c))
		}
	}
	return h.Sum(nil)
}

func TestHashEqualsStreamedDefinition(t *testing.T) {
	docs := []*xmldoc.Document{xmldoc.MustParseString("entry", entryXML)}
	for seed := int64(1); seed <= 60; seed++ {
		docs = append(docs, randomDoc(seed, 120))
	}
	// A node whose preimage outgrows any fixed scratch space.
	wide := xmldoc.NewBuilder("wide", "r")
	for i := 0; i < 300; i++ {
		wide.Element("c", string(bytes.Repeat([]byte{'x'}, i)))
	}
	docs = append(docs, wide.Freeze())
	for _, d := range docs {
		for _, n := range d.Nodes() {
			got := Hash(n)
			if !Equal(got, refHash(n)) || len(got) != HashSize || cap(got) != HashSize {
				t.Fatalf("%s node %d: Hash differs from the definition", d.Name, n.ID())
			}
		}
	}
}

// memoFixture publishes two entries under one provider and has the
// requestor verify — and so remember — the genuine answer for entry A.
type memoFixture struct {
	dir          *wsig.KeyDirectory
	signer       *wsig.Signer
	docA, docB   *xmldoc.Document
	sumA, sumB   SummarySignature
	viewA        *xmldoc.Document
	proofA       *Proof
	keepNoPrices func(*xmldoc.Node) bool
}

func newMemoFixture(t *testing.T) *memoFixture {
	t.Helper()
	docA, signer, dir := setup(t)
	docB := xmldoc.MustParseString("entryB", `<businessEntity key="be2" name="Bolt"><contact>x@bolt.example</contact><price>7</price></businessEntity>`)
	f := &memoFixture{dir: dir, signer: signer, docA: docA, docB: docB, sumA: Sign(docA, signer), sumB: Sign(docB, signer)}
	f.keepNoPrices = func(n *xmldoc.Node) bool {
		for m := n; m != nil; m = m.Parent {
			if m.Name == "price" {
				return false
			}
		}
		return true
	}
	f.viewA, f.proofA = PruneWithProof(docA, f.keepNoPrices)
	for pass := 0; pass < 2; pass++ {
		if err := VerifyView(f.viewA, f.proofA, f.sumA, dir); err != nil {
			t.Fatalf("pass %d: genuine answer refused: %v", pass, err)
		}
	}
	return f
}

// view returns a fresh copy of the genuine view, for a test to damage.
func (f *memoFixture) view() *xmldoc.Document { return f.viewA.Clone() }

// proof returns a deep copy of the genuine proof.
func (f *memoFixture) proof() *Proof {
	p := &Proof{}
	for _, ep := range f.proofA.Elems {
		cp := ElementProof{}
		for _, m := range ep.Missing {
			cp.Missing = append(cp.Missing, PosHash{Pos: m.Pos, Hash: bytes.Clone(m.Hash)})
		}
		p.Elems = append(p.Elems, cp)
	}
	return p
}

// firstWithMissing returns the index of the first element proof carrying
// at least n auxiliary hashes.
func firstWithMissing(t *testing.T, p *Proof, n int) int {
	t.Helper()
	for i, ep := range p.Elems {
		if len(ep.Missing) >= n {
			return i
		}
	}
	t.Fatalf("fixture has no element with %d pruned components", n)
	return -1
}

// TestRememberedSummaryAdmitsNoOtherAnswer: the requestor has verified and
// remembered the genuine answer for entry A. The root hash is still
// recomputed from every answer, so each way of lying about A — or of
// reusing A's remembered signature — is still refused.
func TestRememberedSummaryAdmitsNoOtherAnswer(t *testing.T) {
	f := newMemoFixture(t)
	viewB, proofB := PruneWithProof(f.docB, f.keepNoPrices)
	stranger, err := wsig.NewSigner("stranger")
	if err != nil {
		t.Fatal(err)
	}
	replacement, err := wsig.NewSigner("provider")
	if err != nil {
		t.Fatal(err)
	}

	type answer struct {
		view  *xmldoc.Document
		proof *Proof
		sum   SummarySignature
	}
	cases := map[string]func() answer{
		"flipped byte in the view": func() answer {
			v := f.view()
			for _, n := range v.Nodes() {
				if n.Kind == xmldoc.KindText {
					n.Value = "S" + n.Value[1:]
					break
				}
			}
			return answer{v, f.proof(), f.sumA}
		},
		"dropped <missing>": func() answer {
			p := f.proof()
			i := firstWithMissing(t, p, 1)
			p.Elems[i].Missing = p.Elems[i].Missing[1:]
			return answer{f.view(), p, f.sumA}
		},
		"swapped pos": func() answer {
			p := f.proof()
			m := p.Elems[firstWithMissing(t, p, 1)].Missing
			if m[0].Pos == 0 {
				m[0].Pos = 1
			} else {
				m[0].Pos--
			}
			return answer{f.view(), p, f.sumA}
		},
		"flipped auxiliary hash": func() answer {
			p := f.proof()
			p.Elems[firstWithMissing(t, p, 1)].Missing[0].Hash[0] ^= 1
			return answer{f.view(), p, f.sumA}
		},
		"A's summary on B's view": func() answer { return answer{viewB, proofB, f.sumA} },
		"B's summary on A's view": func() answer { return answer{f.view(), f.proof(), f.sumB} },
		"unregistered signer": func() answer {
			return answer{f.view(), f.proof(), Sign(f.docA, stranger)}
		},
		"unregistered key under the provider's name": func() answer {
			return answer{f.view(), f.proof(), Sign(f.docA, replacement)}
		},
		"truncated signature": func() answer {
			s := f.sumA
			s.Sig.Value = s.Sig.Value[:len(s.Sig.Value)-1]
			return answer{f.view(), f.proof(), s}
		},
		"extended signature": func() answer {
			s := f.sumA
			s.Sig.Value = append(bytes.Clone(s.Sig.Value), 0)
			return answer{f.view(), f.proof(), s}
		},
	}
	for name, build := range cases {
		for pass := 0; pass < 2; pass++ { // a refusal must not be remembered either
			a := build()
			if err := VerifyView(a.view, a.proof, a.sum, f.dir); err == nil {
				t.Errorf("%s: accepted (pass %d)", name, pass)
			}
		}
	}
	if VerifyFull(f.docB, f.sumA, f.dir) {
		t.Error("A's remembered summary accepted for B's full document")
	}
	if err := VerifyView(f.viewA, f.proofA, f.sumA, f.dir); err != nil {
		t.Fatalf("genuine answer refused after the forgeries: %v", err)
	}

	// The provider rotates its key: what was remembered under the old key
	// must stop verifying, for the view and for the full document.
	f.dir.RegisterSigner(replacement)
	if err := VerifyView(f.viewA, f.proofA, f.sumA, f.dir); err == nil {
		t.Error("summary under the replaced key still accepted")
	}
	if VerifyFull(f.docA, f.sumA, f.dir) {
		t.Error("full-document summary under the replaced key still accepted")
	}
	if err := VerifyView(f.viewA, f.proofA, Sign(f.docA, replacement), f.dir); err != nil {
		t.Errorf("summary under the current key refused: %v", err)
	}
}

// TestUnorderedProofRefused documents VerifyView's one-pass reading of a
// proof: auxiliary hashes come in ascending position, as PruneWithProof
// writes them.
func TestUnorderedProofRefused(t *testing.T) {
	f := newMemoFixture(t)
	// Without names and prices every service has two pruned components.
	view, p := PruneWithProof(f.docA, func(n *xmldoc.Node) bool {
		for m := n; m != nil; m = m.Parent {
			if m.Name == "price" || m.Name == "name" && m.Kind == xmldoc.KindElement {
				return false
			}
		}
		return true
	})
	if err := VerifyView(view, p, f.sumA, f.dir); err != nil {
		t.Fatal(err)
	}
	m := p.Elems[firstWithMissing(t, p, 2)].Missing
	m[0], m[1] = m[1], m[0]
	if err := VerifyView(view, p, f.sumA, f.dir); err == nil {
		t.Error("proof with descending positions accepted")
	}
	dup := f.proof()
	i := firstWithMissing(t, dup, 1)
	dup.Elems[i].Missing = append(dup.Elems[i].Missing, dup.Elems[i].Missing[0])
	if err := VerifyView(f.view(), dup, f.sumA, f.dir); err == nil {
		t.Error("proof with a repeated position accepted")
	}
}

// TestConcurrentVerifyAgreesWithFreshDirectory: goroutines sharing one
// directory, verifying genuine and damaged answers, get on every call what
// a directory that has never seen anything answers.
func TestConcurrentVerifyAgreesWithFreshDirectory(t *testing.T) {
	signer, err := wsig.NewSigner("p")
	if err != nil {
		t.Fatal(err)
	}
	shared := wsig.NewKeyDirectory()
	shared.RegisterSigner(signer)
	type answer struct {
		view  *xmldoc.Document
		proof *Proof
		sum   SummarySignature
	}
	var answers []answer
	for seed := int64(1); len(answers) < 16; seed++ {
		doc := randomDoc(seed, 60)
		rng := rand.New(rand.NewSource(seed))
		view, proof := PruneWithProof(doc, func(*xmldoc.Node) bool { return rng.Intn(3) != 0 })
		if view == nil {
			continue
		}
		a := answer{view, proof, Sign(doc, signer)}
		if len(answers)%2 == 1 { // every other answer carries its neighbour's summary
			a.sum = answers[len(answers)-1].sum
		}
		answers = append(answers, a)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 6; round++ {
				for i := range answers {
					a := answers[(i+g)%len(answers)]
					fresh := wsig.NewKeyDirectory()
					fresh.RegisterSigner(signer)
					got := VerifyView(a.view, a.proof, a.sum, shared)
					want := VerifyView(a.view, a.proof, a.sum, fresh)
					if (got == nil) != (want == nil) {
						t.Errorf("goroutine %d answer %d: shared directory says %v, fresh says %v", g, i, got, want)
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
