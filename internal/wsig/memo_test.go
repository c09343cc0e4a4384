package wsig

import (
	"crypto/ed25519"
	"crypto/sha256"
	"fmt"
	"sync"
	"testing"
)

func memoLen(d *KeyDirectory) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.verified)
}

// TestMemoRemembersOnlyWhatVerified: after a genuine triple has been
// remembered, nothing that differs from it in key, data or signature is
// accepted, and no refusal is ever remembered.
func TestMemoRemembersOnlyWhatVerified(t *testing.T) {
	alice, bob, mallory := newSigner(t, "alice"), newSigner(t, "bob"), newSigner(t, "mallory")
	d := NewKeyDirectory()
	d.RegisterSigner(alice)
	d.RegisterSigner(bob)
	data := []byte("root hash of entry A")
	good := alice.SignBytes(data)

	for pass := 0; pass < 2; pass++ { // pass 1 is served from the memo
		if !d.Verify(data, good) {
			t.Fatalf("pass %d: genuine signature refused", pass)
		}
	}
	if memoLen(d) != 1 {
		t.Fatalf("memo holds %d triples after one genuine signature", memoLen(d))
	}

	flipped := append([]byte(nil), good.Value...)
	flipped[7] ^= 1
	refused := []struct {
		name string
		data []byte
		sig  Signature
	}{
		{"other data", []byte("root hash of entry B"), good},
		{"flipped signature bit", data, Signature{Signer: "alice", Value: flipped}},
		{"truncated signature", data, Signature{Signer: "alice", Value: good.Value[:63]}},
		{"extended signature", data, Signature{Signer: "alice", Value: append(append([]byte(nil), good.Value...), 0)}},
		{"empty signature", data, Signature{Signer: "alice"}},
		{"alice's signature under bob's name", data, Signature{Signer: "bob", Value: good.Value}},
		{"unregistered signer", data, mallory.SignBytes(data)},
		{"unregistered signer claiming alice", data, Signature{Signer: "alice", Value: mallory.SignBytes(data).Value}},
	}
	for pass := 0; pass < 2; pass++ {
		for _, c := range refused {
			if d.Verify(c.data, c.sig) {
				t.Errorf("pass %d: %s accepted", pass, c.name)
			}
		}
	}
	if memoLen(d) != 1 {
		t.Fatalf("memo holds %d triples: a refusal was remembered", memoLen(d))
	}
	if !d.Verify(data, good) {
		t.Fatal("genuine signature refused after the refusals")
	}
}

// TestMemoIsKeyedOnKeyBytesNotNames: re-registering a signer under another
// key must not leave its old signatures valid through the memo.
func TestMemoIsKeyedOnKeyBytesNotNames(t *testing.T) {
	old, replacement := newSigner(t, "provider"), newSigner(t, "provider")
	d := NewKeyDirectory()
	d.RegisterSigner(old)
	data := []byte("root")
	sig := old.SignBytes(data)
	if !d.Verify(data, sig) || !d.Verify(data, sig) {
		t.Fatal("genuine signature refused")
	}
	d.RegisterSigner(replacement)
	if d.Verify(data, sig) {
		t.Fatal("signature under the replaced key still accepted")
	}
	if !d.Verify(data, replacement.SignBytes(data)) {
		t.Fatal("signature under the current key refused")
	}
	// A key of the wrong size is refused, not handed to ed25519 to panic on.
	d.Register("stub", ed25519.PublicKey("short"))
	if d.Verify(data, Signature{Signer: "stub", Value: sig.Value}) {
		t.Fatal("verified against a malformed key")
	}
}

// TestMemoConcurrentAgreesWithReference: goroutines sharing one directory,
// verifying a mix of genuine and forged triples, get on every call what a
// directory with no memory answers.
func TestMemoConcurrentAgreesWithReference(t *testing.T) {
	signers := []*Signer{newSigner(t, "s0"), newSigner(t, "s1"), newSigner(t, "s2")}
	d := NewKeyDirectory()
	for _, s := range signers {
		d.RegisterSigner(s)
	}
	type triple struct {
		data []byte
		sig  Signature
		pub  ed25519.PublicKey
	}
	var triples []triple
	for i := 0; i < 24; i++ {
		s := signers[i%len(signers)]
		data := []byte(fmt.Sprintf("entry %d", i))
		tr := triple{data: data, sig: s.SignBytes(data), pub: s.PublicKey()}
		switch i % 4 {
		case 1: // right signer, wrong data
			tr.data = []byte(fmt.Sprintf("entry %d'", i))
		case 3: // someone else's signature under this name
			tr.sig.Value = signers[(i+1)%len(signers)].SignBytes(data).Value
		}
		triples = append(triples, tr)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 12; round++ {
				for i := range triples {
					tr := triples[(i+g*3)%len(triples)]
					if got, want := d.Verify(tr.data, tr.sig), VerifyBytes(tr.data, tr.sig, tr.pub); got != want {
						t.Errorf("goroutine %d: Verify(%q) = %v, reference %v", g, tr.data, got, want)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if got := memoLen(d); got != 12 {
		t.Errorf("memo holds %d triples, want the 12 genuine ones", got)
	}
}

// TestMemoStaysBounded: ten times its capacity in distinct triples leaves
// the memo within its capacity, and crossing the bound through Verify
// itself keeps it correct. (Ed25519 under the race detector costs a
// millisecond a signature, so the volume goes in through remember, the one
// place Verify inserts.)
func TestMemoStaysBounded(t *testing.T) {
	s := newSigner(t, "p")
	d := NewKeyDirectory()
	d.RegisterSigner(s)
	peak := 0
	for i := 0; i < 10*maxVerified-20; i++ {
		d.remember(sha256.Sum256([]byte(fmt.Sprintf("triple %d", i))))
		peak = max(peak, memoLen(d))
	}
	for i := 0; i < 40; i++ {
		data := []byte(fmt.Sprintf("entry %d", i))
		if !d.Verify(data, s.SignBytes(data)) || !d.Verify(data, s.SignBytes(data)) {
			t.Fatalf("genuine signature %d refused", i)
		}
		peak = max(peak, memoLen(d))
	}
	if peak != maxVerified || memoLen(d) >= 40 {
		t.Fatalf("memo peaked at %d triples and holds %d; capacity %d, recycled 20 verifications ago", peak, memoLen(d), maxVerified)
	}
	if d.Verify([]byte("entry 0'"), s.SignBytes([]byte("entry 0"))) {
		t.Fatal("forged triple accepted after the memo was recycled")
	}
}
