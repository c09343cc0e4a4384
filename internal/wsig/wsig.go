// Package wsig provides digital signatures over canonical XML, standing in
// for the W3C XML-Signature work the paper points at ("The focus is on
// XML-Signature Syntax and Processing...", §3.2; "the latest UDDI
// specifications allow one to optionally sign some of the elements in a
// registry, according to the W3C XML Signature syntax", §4.1).
//
// Signatures are Ed25519 over the SHA-256 digest of the canonical
// serialization of a document or subtree. Both detached signatures (over
// raw bytes) and element signatures (over a subtree) are supported.
package wsig

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"webdbsec/internal/xmldoc"
)

// Signature is a detached signature with its signer's name attached so the
// verifier can look up the right key.
type Signature struct {
	Signer string
	Value  []byte
}

// Hex returns the signature value in hexadecimal, for embedding in XML
// attributes.
func (s Signature) Hex() string { return hex.EncodeToString(s.Value) }

// Signer holds an Ed25519 signing key.
type Signer struct {
	Name string
	pub  ed25519.PublicKey
	priv ed25519.PrivateKey
}

// NewSigner creates a signer with a fresh key pair.
func NewSigner(name string) (*Signer, error) {
	pub, priv, err := ed25519.GenerateKey(nil)
	if err != nil {
		return nil, fmt.Errorf("wsig: generate key for %s: %w", name, err)
	}
	return &Signer{Name: name, pub: pub, priv: priv}, nil
}

// PublicKey returns the signer's verification key.
func (s *Signer) PublicKey() ed25519.PublicKey { return s.pub }

// SignBytes signs arbitrary bytes (after hashing).
func (s *Signer) SignBytes(data []byte) Signature {
	d := sha256.Sum256(data)
	return Signature{Signer: s.Name, Value: ed25519.Sign(s.priv, d[:])}
}

// SignDocument signs the canonical form of a document.
func (s *Signer) SignDocument(doc *xmldoc.Document) Signature {
	return s.SignBytes([]byte(doc.Canonical()))
}

// SignSubtree signs the canonical form of the subtree rooted at n.
func (s *Signer) SignSubtree(n *xmldoc.Node) Signature {
	return s.SignBytes([]byte(xmldoc.CanonicalSubtree(n)))
}

// VerifyBytes checks a signature over raw bytes.
func VerifyBytes(data []byte, sig Signature, pub ed25519.PublicKey) bool {
	d := sha256.Sum256(data)
	return ed25519.Verify(pub, d[:], sig.Value)
}

// VerifyDocument checks a document signature.
func VerifyDocument(doc *xmldoc.Document, sig Signature, pub ed25519.PublicKey) bool {
	return VerifyBytes([]byte(doc.Canonical()), sig, pub)
}

// VerifySubtree checks a subtree signature.
func VerifySubtree(n *xmldoc.Node, sig Signature, pub ed25519.PublicKey) bool {
	return VerifyBytes([]byte(xmldoc.CanonicalSubtree(n)), sig, pub)
}

// KeyDirectory maps signer names to verification keys — the trust anchor
// store a requestor consults. It is safe for concurrent use.
//
// Verify remembers the (key, data, signature) triples it has fully
// verified: that a signature is valid for a digest under a key is a fact
// about three byte strings and cannot change. The memo key is the SHA-256
// of the public-key BYTES (not the signer's name), the data's digest and
// the signature, so re-registering a name under another key, or any change
// to data or signature, misses; only successes are remembered, so every
// miss reaches ed25519.Verify (DESIGN.md, "The third-party inquiry path").
type KeyDirectory struct {
	mu       sync.Mutex
	keys     map[string]ed25519.PublicKey   // seclint:guardedby mu
	verified map[[sha256.Size]byte]struct{} // seclint:guardedby mu
}

// maxVerified bounds the memo: when full it is dropped wholesale and
// refills from the triples still in use.
const maxVerified = 4096

// NewKeyDirectory returns an empty directory.
func NewKeyDirectory() *KeyDirectory {
	return &KeyDirectory{
		keys:     make(map[string]ed25519.PublicKey),
		verified: make(map[[sha256.Size]byte]struct{}),
	}
}

// Register adds a signer's key.
func (d *KeyDirectory) Register(name string, pub ed25519.PublicKey) {
	d.mu.Lock()
	d.keys[name] = pub
	d.mu.Unlock()
}

// RegisterSigner adds the signer directly.
func (d *KeyDirectory) RegisterSigner(s *Signer) { d.Register(s.Name, s.pub) }

// Verify checks sig over data against the key registered for sig.Signer.
func (d *KeyDirectory) Verify(data []byte, sig Signature) bool {
	pub, ok := d.Lookup(sig.Signer)
	// Fixed lengths make the concatenation below unambiguous; ed25519
	// accepts no other.
	if !ok || len(pub) != ed25519.PublicKeySize || len(sig.Value) != ed25519.SignatureSize {
		return false
	}
	digest := sha256.Sum256(data)
	var triple [ed25519.PublicKeySize + sha256.Size + ed25519.SignatureSize]byte
	copy(triple[:], pub)
	copy(triple[ed25519.PublicKeySize:], digest[:])
	copy(triple[ed25519.PublicKeySize+sha256.Size:], sig.Value)
	key := sha256.Sum256(triple[:])

	d.mu.Lock()
	_, seen := d.verified[key]
	d.mu.Unlock()
	if seen {
		return true
	}
	if !ed25519.Verify(pub, digest[:], sig.Value) {
		return false
	}
	d.remember(key)
	return true
}

// remember adds a verified triple's key to the memo, emptying it first if
// it is full.
func (d *KeyDirectory) remember(key [sha256.Size]byte) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.verified) >= maxVerified {
		clear(d.verified)
	}
	d.verified[key] = struct{}{}
}

// Lookup returns the key registered for the named signer.
func (d *KeyDirectory) Lookup(name string) (ed25519.PublicKey, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	k, ok := d.keys[name]
	return k, ok
}
