package merkle_test

import (
	"testing"

	"webdbsec/internal/merkle"
	"webdbsec/internal/synth"
	"webdbsec/internal/wsig"
	"webdbsec/internal/xmldoc"
)

// keepShare keeps about pct percent of a document's nodes, spread evenly
// by node ID.
func keepShare(pct int) func(*xmldoc.Node) bool {
	return func(n *xmldoc.Node) bool { return int(n.ID()*7%100) < pct }
}

// TestAuxHashesGrowWithPrunedShare is E4's count half: a view of the whole
// entry needs no auxiliary hash, and the more of the entry the publisher
// prunes, the more hashes the requestor needs to recompute the signed
// root — yet every pruned view still verifies.
func TestAuxHashesGrowWithPrunedShare(t *testing.T) {
	signer, err := wsig.NewSigner("prov")
	if err != nil {
		t.Fatal(err)
	}
	dir := wsig.NewKeyDirectory()
	dir.RegisterSigner(signer)
	for _, patients := range []int{16, 256} {
		doc := synth.Hospital(4, patients)
		ss := merkle.Sign(doc, signer)
		prev := -1
		for _, pruned := range []int{0, 50, 90} {
			view, proof := merkle.PruneWithProof(doc, keepShare(100-pruned))
			if err := merkle.VerifyView(view, proof, ss, dir); err != nil {
				t.Fatalf("%d patients, %d%% pruned: %v", patients, pruned, err)
			}
			aux := proof.NumAuxHashes()
			if pruned == 0 && aux != 0 {
				t.Fatalf("%d patients, nothing pruned: %d aux hashes, want 0", patients, aux)
			}
			if aux <= prev {
				t.Fatalf("%d patients: %d%% pruned needs %d aux hashes, not more than the %d of the smaller share", patients, pruned, aux, prev)
			}
			prev = aux
		}
	}
}

// BenchmarkProofVsResign is ablation A2: the untrusted agency builds a
// pruned view and its proof per query and the requestor checks it against
// the owner's one signature, against an agency that re-signs every view —
// cheaper per query, but it needs a key that can sign anything, so the
// agency must be trusted, which the third-party model rules out.
func BenchmarkProofVsResign(b *testing.B) {
	doc := synth.Hospital(21, 256)
	signer, err := wsig.NewSigner("owner")
	if err != nil {
		b.Fatal(err)
	}
	dir := wsig.NewKeyDirectory()
	dir.RegisterSigner(signer)
	ss := merkle.Sign(doc, signer)
	keep := keepShare(50)
	b.Run("merkle/serve+verify", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			view, proof := merkle.PruneWithProof(doc, keep)
			if err := merkle.VerifyView(view, proof, ss, dir); err != nil {
				b.Fatal(err)
			}
		}
	})
	agency, err := wsig.NewSigner("agency")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("resign/serve+verify(requires-trusted-agency)", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			view := doc.Prune(keep)
			if !wsig.VerifyDocument(view, agency.SignDocument(view), agency.PublicKey()) {
				b.Fatal("verify failed")
			}
		}
	})
}
