package authtoken_test

import (
	"crypto/sha256"
	"errors"
	"testing"
	"time"

	"webdbsec/internal/authtoken"
	"webdbsec/internal/credential"
	"webdbsec/internal/keymgmt"
)

// walletToken is the first step of a chain g signed on the wallet path.
func walletToken(t *testing.T, g *authtoken.Gate, id string, now time.Time) *authtoken.Token {
	t.Helper()
	s := subj(id)
	s.Wallet = credential.NewWallet(id)
	res, err := g.Authenticate(s, nil, now)
	if err != nil || res.Token == nil || res.Token.Step != 1 {
		t.Fatalf("wallet mint: %+v, %v", res, err)
	}
	return res.Token
}

// TestOneSignaturePerChain: a rolling client walks its chain to the end
// without a signature, then gets step 1 of a new chain.
func TestOneSignaturePerChain(t *testing.T) {
	g, _ := newTestGate(t, time.Minute)
	now := time.Now()
	tok := walletToken(t, g, "ana", now)
	chains := map[uint64]bool{tok.Nonce: true}
	const requests = 3 * authtoken.ChainLen
	for i := 0; i < requests; i++ {
		res, err := g.Authenticate(subj("ana"), tok.Encode(), now)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		next := res.Token
		switch {
		case tok.Step < authtoken.ChainLen:
			if next.Nonce != tok.Nonce || next.Step != tok.Step+1 {
				t.Fatalf("request %d: step %d of a chain followed by %+v", i, tok.Step, next)
			}
		case next.Step != 1 || chains[next.Nonce]:
			t.Fatalf("request %d: the end of a chain was followed by %+v, want a new chain", i, next)
		}
		chains[next.Nonce] = true
		tok = next
	}
	st := g.Stats()
	if st.Mint.Minted != uint64(len(chains)) || len(chains) != 4 {
		t.Fatalf("%d signatures over %d chains, want 4 each", st.Mint.Minted, len(chains))
	}
	if st.Advanced != requests-3 || st.Verifier.Recognised != requests {
		t.Fatalf("stats = %+v, want %d advanced and every step recognised", st, requests-3)
	}
	if st.Verifier.ReplayEntries != 4 {
		t.Fatalf("%d chain entries, want one per chain", st.Verifier.ReplayEntries)
	}
}

// TestChainRenewsPastHalfItsTTL: a successor always has at least half a
// TTL ahead of it.
func TestChainRenewsPastHalfItsTTL(t *testing.T) {
	g, _ := newTestGate(t, time.Minute)
	now := time.Now()
	tok := walletToken(t, g, "ana", now)
	res, err := g.Authenticate(subj("ana"), tok.Encode(), now.Add(29*time.Second))
	if err != nil || res.Token.Nonce != tok.Nonce {
		t.Fatalf("inside half the TTL: %+v, %v, want the chain's next step", res, err)
	}
	later := now.Add(31 * time.Second)
	res, err = g.Authenticate(subj("ana"), res.Token.Encode(), later)
	if err != nil || res.Token.Nonce == tok.Nonce || res.Token.Step != 1 {
		t.Fatalf("past half the TTL: %+v, %v, want a new chain", res, err)
	}
	if want := later.Add(time.Minute).Unix(); res.ExpiresAt.Unix() != want {
		t.Fatalf("ExpiresAt = %d, want %d", res.ExpiresAt.Unix(), want)
	}
}

// TestChainStepsCannotBeForged: a holder of step k can compute every
// earlier step, all spent, and no later one.
func TestChainStepsCannotBeForged(t *testing.T) {
	g, _ := newTestGate(t, time.Minute)
	now := time.Now()
	s := subj("ana")
	tok := walletToken(t, g, "ana", now)
	for i := 0; i < 3; i++ {
		res, err := g.Authenticate(s, tok.Encode(), now)
		if err != nil {
			t.Fatalf("roll: %v", err)
		}
		tok = res.Token
	}
	// tok is step 4 and unspent: step 3 is spent, and so is every step
	// below it, which the holder can derive by hashing.
	earlier := *tok
	for earlier.Step > 1 {
		earlier.Step--
		earlier.Link = sha256.Sum256(earlier.Link[:])
		if _, err := g.Verifier.VerifyBound(earlier.Encode(), s, now); !errors.Is(err, authtoken.ErrReplay) {
			t.Fatalf("derived step %d: err = %v, want ErrReplay", earlier.Step, err)
		}
	}
	// A later step needs a preimage of the link. Neither the link itself
	// nor its hash under a raised step count will do.
	for _, link := range [][sha256.Size]byte{tok.Link, sha256.Sum256(tok.Link[:]), {}} {
		later := *tok
		later.Step++
		later.Link = link
		if _, err := g.Verifier.VerifyBound(later.Encode(), s, now); !errors.Is(err, authtoken.ErrBadSignature) {
			t.Fatalf("forged step %d: err = %v, want ErrBadSignature", later.Step, err)
		}
	}
	raw := tok.Encode()
	raw[133] = 0
	if _, err := g.Verifier.VerifyBound(raw, s, now); !errors.Is(err, authtoken.ErrMalformed) {
		t.Fatalf("step 0: err = %v, want ErrMalformed", err)
	}
	// None of that spent the genuine step.
	if _, err := g.Verifier.VerifyBound(tok.Encode(), s, now); err != nil {
		t.Fatalf("genuine step after the forgeries: %v", err)
	}
	if st := g.Verifier.Stats(); st.Replayed != 3 || st.BadSignature != 3 || st.Malformed != 1 {
		t.Fatalf("stats = %+v, want 3 replayed / 3 bad signatures / 1 malformed", st)
	}
}

// TestAdvancedStepVerifiesAnywhere: a step past the first verifies from
// the public key set alone — on a read replica, and on another minting
// gate, which answers with a chain of its own.
func TestAdvancedStepVerifiesAnywhere(t *testing.T) {
	leader, ring := newTestGate(t, time.Minute)
	now := time.Now()
	s := subj("ana")
	tok := walletToken(t, leader, "ana", now)
	res, err := leader.Authenticate(s, tok.Encode(), now)
	if err != nil || res.Token.Step != 2 {
		t.Fatalf("roll: %+v, %v", res, err)
	}
	step2 := res.Token.Encode()

	keyset := keymgmt.NewPublicKeySet()
	data, _ := ring.ExportPublic()
	if err := keyset.Install(data); err != nil {
		t.Fatalf("install: %v", err)
	}
	replica := &authtoken.Gate{Verifier: authtoken.NewVerifier(keyset, time.Minute, 0, -1)}
	for i := 0; i < 2; i++ {
		if r, err := replica.Authenticate(s, step2, now); err != nil || r.Token != nil {
			t.Fatalf("replica: %+v, %v", r, err)
		}
	}

	m, err := authtoken.NewMinter(ring, nil, allowAll{}, time.Minute)
	if err != nil {
		t.Fatalf("minter: %v", err)
	}
	other := &authtoken.Gate{Verifier: authtoken.NewVerifier(ring, time.Minute, 0, 0), Minter: m}
	r, err := other.Authenticate(s, step2, now)
	if err != nil || r.Token.Step != 1 || r.Token.Nonce == tok.Nonce {
		t.Fatalf("other gate: %+v, %v, want step 1 of its own chain", r, err)
	}
	if _, err := other.Authenticate(s, step2, now); !errors.Is(err, authtoken.ErrReplay) {
		t.Fatalf("other gate, step re-presented: err = %v, want ErrReplay", err)
	}
}

// TestRotationStartsANewChain: a chain anchored under a rotated-away
// signing key is not advanced; the next successor is signed under the
// new epoch.
func TestRotationStartsANewChain(t *testing.T) {
	g, ring := newTestGate(t, time.Minute)
	now := time.Now()
	s := subj("ana")
	tok := walletToken(t, g, "ana", now)
	if _, err := ring.Rotate(); err != nil {
		t.Fatalf("rotate: %v", err)
	}
	res, err := g.Authenticate(s, tok.Encode(), now)
	if err != nil {
		t.Fatalf("old-epoch step: %v", err)
	}
	if res.Token.Epoch != 2 || res.Token.Nonce == tok.Nonce || res.Token.Step != 1 {
		t.Fatalf("successor %+v, want step 1 of a new chain under epoch 2", res.Token)
	}
}
