package authtoken

import (
	"crypto/ed25519"
	"crypto/sha256"
	"testing"
	"time"

	"webdbsec/internal/policy"
)

// oneKey is a key set of a single epoch.
type oneKey struct {
	pub  ed25519.PublicKey
	priv ed25519.PrivateKey
}

func (k oneKey) SigningKey() (uint32, ed25519.PrivateKey) { return 1, k.priv }

func (k oneKey) VerifyKey(epoch uint32) (ed25519.PublicKey, bool) { return k.pub, epoch == 1 }

type permit struct{}

func (permit) AllowMint(*policy.Subject) bool { return true }

// TestCollidingNonceGetsAFreshChain: a chain that shares its nonce with
// one this gate signed is not advanced with the other chain's seed — the
// successor would not verify — but answered with a fresh signature.
func TestCollidingNonceGetsAFreshChain(t *testing.T) {
	pub, priv, _ := ed25519.GenerateKey(nil)
	keys := oneKey{pub: pub, priv: priv}
	m, err := NewMinter(keys, nil, permit{}, time.Minute)
	if err != nil {
		t.Fatalf("minter: %v", err)
	}
	g := &Gate{Verifier: NewVerifier(keys, time.Minute, 0, 0), Minter: m}
	now := time.Now()
	s := &policy.Subject{ID: "ana"}
	own, err := g.mint(s, now)
	if err != nil {
		t.Fatalf("mint: %v", err)
	}

	// Another chain under the same nonce, signed with the same key.
	var seed [sha256.Size]byte
	seed[0] = 1
	other := &Token{Epoch: 1, IssuedAt: now.Unix(), Nonce: own.Nonce, Subject: own.Subject, Step: 1}
	other.Link = hashN(seed, ChainLen-1)
	other.Tip = sha256.Sum256(other.Link[:])
	copy(other.Sig[:], ed25519.Sign(priv, other.Encode()[:anchorLen]))

	res, err := g.Authenticate(s, other.Encode(), now)
	if err != nil {
		t.Fatalf("colliding chain: %v", err)
	}
	if res.Token.Step != 1 || res.Token.Nonce == own.Nonce {
		t.Fatalf("successor %+v, want step 1 of a new chain", res.Token)
	}
	if _, err := g.Authenticate(s, res.Token.Encode(), now); err != nil {
		t.Fatalf("successor of the colliding chain: %v", err)
	}
}
