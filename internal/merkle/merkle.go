// Package merkle implements the Merkle-hash-tree authentication mechanism
// of Bertino, Carminati and Ferrari [4], which the paper (§4.1) proposes
// for untrusted third-party publishing: "the service provider sends the
// discovery agency a summary signature, generated using a technique based
// on Merkle hash trees, for each entry ... the requestor can locally
// recompute the same hash value signed by the service provider ... since a
// requestor may be returned only selected portions of an entry ... the
// discovery agency sends the requestor a set of additional hash values,
// referring to the missing portions, that make it able to locally perform
// the computation of the summary signature."
//
// The Merkle hash of an XML node is defined structurally:
//
//	h(text)    = H(0x02 ‖ value)
//	h(attr)    = H(0x01 ‖ name ‖ 0x00 ‖ value)
//	h(element) = H(0x00 ‖ name ‖ 0x00 ‖ h(c₁) ‖ … ‖ h(cₖ))
//
// where c₁…cₖ are the element's components — attributes first (sorted, as
// Freeze guarantees), then children — in order. The summary signature is a
// wsig signature over the root hash.
//
// A Proof carries, for every element retained in a pruned view, the hashes
// of the components the view dropped, tagged with their original positions.
// The verifier re-computes the root hash bottom-up from the view plus the
// proof and checks the summary signature: any tampering with retained
// content, any reordering, and any silent omission (one not covered by a
// disclosed hash) makes verification fail — authenticity AND completeness,
// without trusting the publisher.
package merkle

import (
	"bytes"
	"crypto/sha256"
	"fmt"

	"webdbsec/internal/wsig"
	"webdbsec/internal/xmldoc"
)

// HashSize is the digest size in bytes.
const HashSize = sha256.Size

// Hash computes the Merkle hash of the subtree rooted at n.
func Hash(n *xmldoc.Node) []byte {
	var scratch [256]byte
	return bytes.Clone(appendHash(scratch[:0], n))
}

// appendHash appends the Merkle hash of the subtree rooted at n to buf.
// The space beyond len(buf) is its scratch: a node's preimage is laid out
// there (an element's component hashes landing in place, one recursion
// each), digested, and overwritten by the digest — one buffer serves a
// whole tree.
func appendHash(buf []byte, n *xmldoc.Node) []byte {
	start := len(buf)
	switch n.Kind {
	case xmldoc.KindText:
		buf = append(buf, 0x02)
		buf = append(buf, n.Value...)
	case xmldoc.KindAttr:
		buf = append(buf, 0x01)
		buf = append(buf, n.Name...)
		buf = append(buf, 0x00)
		buf = append(buf, n.Value...)
	case xmldoc.KindElement:
		buf = appendElementTag(buf, n)
		for i := 0; i < numComponents(n); i++ {
			buf = appendHash(buf, component(n, i))
		}
	}
	return sealHash(buf, start)
}

// appendElementTag opens an element's preimage: 0x00 ‖ name ‖ 0x00.
func appendElementTag(buf []byte, e *xmldoc.Node) []byte {
	buf = append(buf, 0x00)
	buf = append(buf, e.Name...)
	return append(buf, 0x00)
}

// sealHash replaces the preimage buf[start:] with its digest.
func sealHash(buf []byte, start int) []byte {
	sum := sha256.Sum256(buf[start:])
	return append(buf[:start], sum[:]...)
}

// DocumentHash returns the Merkle hash of the document root.
func DocumentHash(d *xmldoc.Document) []byte {
	if d == nil || d.Root == nil {
		return nil
	}
	return Hash(d.Root)
}

// SummarySignature is the provider's signature over a document's Merkle
// root hash.
type SummarySignature struct {
	Sig wsig.Signature
}

// Sign produces the summary signature of a document under the signer's key.
func Sign(d *xmldoc.Document, signer *wsig.Signer) SummarySignature {
	return SummarySignature{Sig: signer.SignBytes(DocumentHash(d))}
}

// VerifyFull checks a summary signature against a complete document.
func VerifyFull(d *xmldoc.Document, ss SummarySignature, dir *wsig.KeyDirectory) bool {
	return dir.Verify(DocumentHash(d), ss.Sig)
}

// PosHash is the Merkle hash of a pruned component, tagged with its
// position in the original element's component list (attributes first,
// then children).
type PosHash struct {
	Pos  int
	Hash []byte
}

// ElementProof lists the pruned components of one retained element, in
// ascending position order; VerifyView refuses any other order.
type ElementProof struct {
	Missing []PosHash
}

// Proof is the auxiliary hash set for a pruned view. Elems holds one entry
// per retained element, in document (pre-)order of the view.
type Proof struct {
	Elems []ElementProof
}

// NumAuxHashes returns the total number of auxiliary hashes in the proof —
// the bandwidth overhead of untrusted publishing, which experiment E4
// measures.
func (p *Proof) NumAuxHashes() int {
	n := 0
	for _, e := range p.Elems {
		n += len(e.Missing)
	}
	return n
}

// PruneWithProof prunes the document to the nodes accepted by keep (plus
// ancestors, as xmldoc.Prune does) and builds the Merkle proof for the
// resulting view. It returns (nil, nil) when nothing is retained.
//
// The publisher (discovery agency) runs this; it needs no signing key —
// only the provider-signed summary signature accompanies the result.
func PruneWithProof(d *xmldoc.Document, keep func(*xmldoc.Node) bool) (*xmldoc.Document, *Proof) {
	// Evaluate keep exactly once per node (it may be stateful), in document
	// order, and derive the view and the proof from the one retain set:
	// a node is retained iff keep accepts it or it has an accepted
	// descendant, as in xmldoc.Prune. Working on the original tree gives
	// exact node identity, so identical-named siblings can never be
	// confused.
	retain := make([]bool, d.NumNodes())
	for _, n := range d.Nodes() {
		if keep(n) {
			for m := n; m != nil && !retain[m.ID()]; m = m.Parent {
				retain[m.ID()] = true
			}
		}
	}
	view := d.Prune(func(n *xmldoc.Node) bool { return retain[n.ID()] })
	if view == nil {
		return nil, nil
	}
	proof := &Proof{}
	// Pre-order over retained elements of the original tree — the same
	// order the view's elements appear in, which is how VerifyView consumes
	// the proof. An element's entry is placed before its children's and
	// filled in as they are walked.
	var walk func(orig *xmldoc.Node)
	walk = func(orig *xmldoc.Node) {
		at := len(proof.Elems)
		proof.Elems = append(proof.Elems, ElementProof{})
		var missing []PosHash
		for pos := 0; pos < numComponents(orig); pos++ {
			switch oc := component(orig, pos); {
			case !retain[oc.ID()]:
				missing = append(missing, PosHash{Pos: pos, Hash: Hash(oc)})
			case oc.Kind == xmldoc.KindElement:
				walk(oc)
			}
		}
		proof.Elems[at].Missing = missing
	}
	walk(d.Root)
	return view, proof
}

// An element's component list is its attributes first, then its children,
// in order.
func numComponents(e *xmldoc.Node) int { return len(e.Attrs) + len(e.Children) }

func component(e *xmldoc.Node, i int) *xmldoc.Node {
	if i < len(e.Attrs) {
		return e.Attrs[i]
	}
	return e.Children[i-len(e.Attrs)]
}

// VerifyView recomputes the Merkle root hash of the original document from
// a pruned view and its proof, and checks it against the summary
// signature. It returns nil on success and a descriptive error on any
// authenticity or completeness failure.
func VerifyView(view *xmldoc.Document, proof *Proof, ss SummarySignature, dir *wsig.KeyDirectory) error {
	if view == nil || view.Root == nil {
		return fmt.Errorf("merkle: empty view")
	}
	if proof == nil {
		return fmt.Errorf("merkle: missing proof")
	}
	var scratch [512]byte
	v := viewHasher{elems: proof.Elems}
	root, err := v.hashElem(scratch[:0], view.Root)
	if err != nil {
		return err
	}
	if v.next != len(proof.Elems) {
		return fmt.Errorf("merkle: proof has %d unused element entries", len(proof.Elems)-v.next)
	}
	if !dir.Verify(root, ss.Sig) {
		return fmt.Errorf("merkle: summary signature does not verify (signer %q)", ss.Sig.Signer)
	}
	return nil
}

// viewHasher walks a view in pre-order, consuming one ElementProof per
// element.
type viewHasher struct {
	elems []ElementProof
	next  int
}

// hashElem appends the hash of the original of view element e to buf (see
// appendHash): the original's components are the view's, in order, with
// each auxiliary hash slotted in at its recorded position.
func (v *viewHasher) hashElem(buf []byte, e *xmldoc.Node) ([]byte, error) {
	if v.next >= len(v.elems) {
		return nil, fmt.Errorf("merkle: proof exhausted at element %q", e.Name)
	}
	missing := v.elems[v.next].Missing
	v.next++
	start := len(buf)
	buf = appendElementTag(buf, e)
	total := numComponents(e) + len(missing)
	ci := 0
	for pos := 0; pos < total; pos++ {
		if len(missing) > 0 && missing[0].Pos == pos {
			if len(missing[0].Hash) != HashSize {
				return nil, fmt.Errorf("merkle: malformed auxiliary hash in element %q", e.Name)
			}
			buf = append(buf, missing[0].Hash...)
			missing = missing[1:]
			continue
		}
		if ci == numComponents(e) {
			break
		}
		c := component(e, ci)
		ci++
		if c.Kind != xmldoc.KindElement {
			buf = appendHash(buf, c)
			continue
		}
		var err error
		if buf, err = v.hashElem(buf, c); err != nil {
			return nil, err
		}
	}
	if len(missing) > 0 {
		// Out of range, repeated, or not in ascending order.
		return nil, fmt.Errorf("merkle: proof position %d misplaced in element %q", missing[0].Pos, e.Name)
	}
	return sealHash(buf, start), nil
}

// Equal reports whether two hashes are equal.
func Equal(a, b []byte) bool { return bytes.Equal(a, b) }
