package authtoken_test

import (
	"crypto/ed25519"
	"errors"
	"sync"
	"testing"
	"time"

	"webdbsec/internal/authtoken"
	"webdbsec/internal/credential"
	"webdbsec/internal/keymgmt"
	"webdbsec/internal/policy"
)

// The issued table: a gate's verifier skips ed25519.Verify and the chain
// walk for a step the gate handed out itself and has not been shown yet.
// These tests hold it to the rule that a hit changes the signature step's
// cost and nothing else, and that everything short of a byte-for-byte hit
// under the same key is a miss that reaches ed25519.Verify.

// issueRemembered returns a token g signed through Authenticate (the
// successor of a directly minted one), so g's verifier remembers it.
func issueRemembered(t *testing.T, g *authtoken.Gate, s *policy.Subject, now time.Time) *authtoken.Token {
	t.Helper()
	first, err := g.Minter.Mint(s, now)
	if err != nil {
		t.Fatalf("mint: %v", err)
	}
	res, err := g.Authenticate(s, first.Encode(), now)
	if err != nil {
		t.Fatalf("roll: %v", err)
	}
	return res.Token
}

func TestEverySigningPathIsRemembered(t *testing.T) {
	g, _ := newTestGate(t, time.Minute)
	now := time.Now()
	s := subj("ana", "analyst")

	// Minter.Mint used directly is outside the gate: nothing remembers it.
	direct, _ := g.Minter.Mint(s, now)
	if st := g.Verifier.Stats(); st.IssuedEntries != 0 {
		t.Fatalf("a direct Minter.Mint left %d issued entries", st.IssuedEntries)
	}
	// Successor roll.
	res, err := g.Authenticate(s, direct.Encode(), now)
	if err != nil {
		t.Fatalf("roll: %v", err)
	}
	if st := g.Verifier.Stats(); st.IssuedEntries != 1 || st.Recognised != 0 || st.Verified != 1 {
		t.Fatalf("after one roll: %+v, want 1 issued entry, 0 recognised, 1 verified", st)
	}
	// Wallet path.
	ws := &policy.Subject{ID: "bea", Wallet: credential.NewWallet("bea")}
	wres, err := g.Authenticate(ws, nil, now)
	if err != nil || wres.Path != authtoken.PathWallet {
		t.Fatalf("wallet path: %+v, %v", wres, err)
	}
	if st := g.Verifier.Stats(); st.IssuedEntries != 2 {
		t.Fatalf("after the wallet mint: %d issued entries, want 2", st.IssuedEntries)
	}
	// Both come back recognised, and Verified still counts them.
	next, err := g.Authenticate(s, res.Token.Encode(), now)
	if err != nil {
		t.Fatalf("successor: %v", err)
	}
	wnext, err := g.Authenticate(subj("bea"), wres.Token.Encode(), now)
	if err != nil {
		t.Fatalf("wallet-minted token: %v", err)
	}
	if st := g.Stats().Verifier; st.Recognised != 2 || st.Verified != 3 || st.IssuedEntries != 2 {
		t.Fatalf("after presenting both: %+v, want 2 recognised, 3 verified, 2 issued (their successors)", st)
	}
	// Chain advance: the successors are the next steps, remembered without
	// a signature.
	if next.Token.Nonce != res.Token.Nonce || next.Token.Step != 2 || wnext.Token.Nonce != wres.Token.Nonce || wnext.Token.Step != 2 {
		t.Fatalf("successors are not their chains' second steps")
	}
	if st := g.Stats(); st.Advanced != 2 || st.Mint.Minted != 3 {
		t.Fatalf("stats = %+v, want 2 advanced, 3 signatures (direct, roll, wallet)", st)
	}
	for _, tok := range []*authtoken.Token{next.Token, wnext.Token} {
		who := s
		if tok == wnext.Token {
			who = subj("bea")
		}
		if _, err := g.Verifier.VerifyBound(tok.Encode(), who, now); err != nil {
			t.Fatalf("advanced step: %v", err)
		}
	}
	if st := g.Verifier.Stats(); st.Recognised != 4 {
		t.Fatalf("advanced steps were not recognised: %+v", st)
	}
}

func TestSameNonceOtherBytesIsAMiss(t *testing.T) {
	g, _ := newTestGate(t, time.Minute)
	now := time.Now()
	s := subj("ana")
	raw := issueRemembered(t, g, s, now).Encode()

	// Same nonce (bytes 13..20 untouched), another anchor, signature or
	// link.
	for _, off := range []int{2, 6, 12, 22, 36, 37, 60, 100, 140, authtoken.TokenLen - 1} {
		forged := append([]byte{}, raw...)
		forged[off] ^= 0x01
		if _, err := g.Verifier.VerifyBound(forged, s, now); !errors.Is(err, authtoken.ErrBadSignature) && !errors.Is(err, authtoken.ErrUnknownEpoch) {
			t.Fatalf("byte %d altered: err = %v, want ErrBadSignature (ErrUnknownEpoch inside the epoch field)", off, err)
		}
	}
	if st := g.Verifier.Stats(); st.Recognised != 0 || st.IssuedEntries != 1 {
		t.Fatalf("misses touched the table: %+v", st)
	}
	if _, err := g.Verifier.VerifyBound(raw, s, now); err != nil {
		t.Fatalf("genuine token after the forgeries: %v", err)
	}
	if st := g.Verifier.Stats(); st.Recognised != 1 || st.IssuedEntries != 0 {
		t.Fatalf("genuine token: %+v, want recognised and its entry gone", st)
	}
}

func TestRecognisedTokenIsStillSingleUse(t *testing.T) {
	g, _ := newTestGate(t, time.Minute)
	now := time.Now()
	s := subj("ana")
	raw := issueRemembered(t, g, s, now).Encode()

	if _, err := g.Authenticate(s, raw, now); err != nil {
		t.Fatalf("first presentation: %v", err)
	}
	if _, err := g.Authenticate(s, raw, now.Add(time.Second)); !errors.Is(err, authtoken.ErrReplay) {
		t.Fatalf("second presentation: err = %v, want ErrReplay", err)
	}
	if st := g.Verifier.Stats(); st.Replayed != 1 || st.Recognised != 1 {
		t.Fatalf("stats = %+v, want 1 replayed, 1 recognised", st)
	}
}

func TestRecognisedTokenFailsLaterChecksAsBefore(t *testing.T) {
	g, _ := newTestGate(t, time.Minute)
	now := time.Now()
	ana := subj("ana", "analyst")

	tok := issueRemembered(t, g, ana, now)
	if _, err := g.Verifier.VerifyBound(tok.Encode(), subj("res", "analyst"), now); !errors.Is(err, authtoken.ErrSubjectMismatch) {
		t.Fatalf("wrong subject: err = %v, want ErrSubjectMismatch", err)
	}
	// Neither the step nor its memory was spent: the rightful holder still
	// gets in, recognised again.
	if _, err := g.Verifier.VerifyBound(tok.Encode(), ana, now); err != nil {
		t.Fatalf("rightful holder after the mismatch: %v", err)
	}
	if st := g.Verifier.Stats(); st.Recognised != 2 || st.IssuedEntries != 0 {
		t.Fatalf("stats = %+v, want the step recognised twice and then consumed", st)
	}

	old := issueRemembered(t, g, ana, now)
	if _, err := g.Verifier.VerifyBound(old.Encode(), ana, now.Add(time.Minute+time.Second)); !errors.Is(err, authtoken.ErrExpired) {
		t.Fatalf("past its ttl: err = %v, want ErrExpired", err)
	}
	early := issueRemembered(t, g, ana, now.Add(45*time.Second))
	if _, err := g.Verifier.VerifyBound(early.Encode(), ana, now); !errors.Is(err, authtoken.ErrFutureSkew) {
		t.Fatalf("issued beyond the skew: err = %v, want ErrFutureSkew", err)
	}
	// Neither burned its nonce either.
	if _, err := g.Verifier.VerifyBound(old.Encode(), ana, now.Add(time.Second)); err != nil {
		t.Fatalf("inside its ttl after the expired presentation: %v", err)
	}
	st := g.Verifier.Stats()
	if st.SubjectMismatch != 1 || st.Expired != 1 || st.FutureSkew != 1 || st.Replayed != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRotatedAwayEpochDefeatsTheTable(t *testing.T) {
	g, ring := newTestGate(t, time.Minute) // keeps 2 epochs
	now := time.Now()
	s := subj("ana")
	tok := issueRemembered(t, g, s, now) // epoch 1

	ring.Rotate()
	ring.Rotate() // epoch 1 has left the retention window
	if _, err := g.Verifier.VerifyBound(tok.Encode(), s, now); !errors.Is(err, authtoken.ErrUnknownEpoch) {
		t.Fatalf("remembered token of a rotated-away epoch: err = %v, want ErrUnknownEpoch", err)
	}
	if st := g.Verifier.Stats(); st.Recognised != 0 {
		t.Fatalf("recognised a token whose key is gone: %+v", st)
	}
}

// swapKeys is a key set whose epoch 1 the test can replace.
type swapKeys struct {
	mu   sync.Mutex
	priv ed25519.PrivateKey // seclint:guardedby mu
	pub  ed25519.PublicKey  // seclint:guardedby mu
}

func (k *swapKeys) SigningKey() (uint32, ed25519.PrivateKey) {
	k.mu.Lock()
	defer k.mu.Unlock()
	return 1, k.priv
}

func (k *swapKeys) VerifyKey(epoch uint32) (ed25519.PublicKey, bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.pub, epoch == 1
}

func TestReplacedEpochKeyDefeatsTheTable(t *testing.T) {
	pub, priv, _ := ed25519.GenerateKey(nil)
	keys := &swapKeys{priv: priv, pub: pub}
	m, err := authtoken.NewMinter(keys, nil, allowAll{}, time.Minute)
	if err != nil {
		t.Fatalf("minter: %v", err)
	}
	g := &authtoken.Gate{Verifier: authtoken.NewVerifier(keys, time.Minute, 0, 0), Minter: m}
	now := time.Now()
	s := subj("ana")
	tok := issueRemembered(t, g, s, now)

	// Another key under the same epoch number: the verifier now looks up a
	// key the remembered token was not signed with.
	otherPub, _, _ := ed25519.GenerateKey(nil)
	keys.mu.Lock()
	keys.pub = otherPub
	keys.mu.Unlock()
	if _, err := g.Verifier.VerifyBound(tok.Encode(), s, now); !errors.Is(err, authtoken.ErrBadSignature) {
		t.Fatalf("epoch key replaced: err = %v, want ErrBadSignature", err)
	}
	if st := g.Verifier.Stats(); st.Recognised != 0 || st.IssuedEntries != 1 {
		t.Fatalf("stats = %+v, want a miss that left the entry alone", st)
	}
	// The original key back: the entry is still good for it.
	keys.mu.Lock()
	keys.pub = pub
	keys.mu.Unlock()
	if _, err := g.Verifier.VerifyBound(tok.Encode(), s, now); err != nil {
		t.Fatalf("original key restored: %v", err)
	}
	if st := g.Verifier.Stats(); st.Recognised != 1 {
		t.Fatalf("stats = %+v, want 1 recognised", st)
	}
}

func TestIssuedTableIsBoundedAndAMissIsNeverAnError(t *testing.T) {
	ring, _ := keymgmt.NewMintKeyring(1)
	m, _ := authtoken.NewMinter(ring, nil, allowAll{}, time.Hour)
	// Capacity 16 is the floor: one entry per shard.
	g := &authtoken.Gate{Verifier: authtoken.NewVerifier(ring, time.Hour, 0, 16), Minter: m}
	now := time.Now()
	s := subj("ana")

	const n = 200
	toks := make([]*authtoken.Token, n)
	for i := range toks {
		toks[i] = issueRemembered(t, g, s, now)
		if st := g.Verifier.Stats(); st.IssuedEntries > 16 {
			t.Fatalf("issued table grew past its bound: %d entries", st.IssuedEntries)
		}
	}
	verifiedBefore := g.Verifier.Stats().Verified
	// Newest first, so the survivors are shown before the chains consumed
	// by signature crowd them out: all but the newest per shard were
	// evicted unpresented, and every one of them still verifies.
	for i := n - 1; i >= 0; i-- {
		if _, err := g.Verifier.VerifyBound(toks[i].Encode(), s, now); err != nil {
			t.Fatalf("token %d after eviction: %v", i, err)
		}
	}
	st := g.Verifier.Stats()
	if st.Verified-verifiedBefore != n || st.BadSignature != 0 {
		t.Fatalf("stats = %+v, want all %d accepted", st, n)
	}
	if st.Recognised == 0 || st.Recognised > 16 {
		t.Fatalf("recognised %d, want between 1 and 16 (the survivors)", st.Recognised)
	}
	if st.IssuedEntries != 0 {
		t.Fatalf("%d entries left after every token was presented", st.IssuedEntries)
	}
}

func TestExpiredIssuedEntriesAreDropped(t *testing.T) {
	g, _ := newTestGate(t, time.Minute) // skew 30s
	now := time.Now()
	s := subj("ana")
	for i := 0; i < 50; i++ {
		issueRemembered(t, g, s, now)
	}
	if st := g.Verifier.Stats(); st.IssuedEntries != 50 {
		t.Fatalf("%d issued entries, want 50", st.IssuedEntries)
	}
	// Past ttl + skew nothing about the first fifty is worth keeping; each
	// shard drops its share the next time it remembers something. 300
	// random nonces leave one of 16 shards untouched with probability 1e-7.
	later := now.Add(time.Minute + 30*time.Second + 2*time.Second)
	for i := 0; i < 300; i++ {
		issueRemembered(t, g, s, later)
	}
	if st := g.Verifier.Stats(); st.IssuedEntries != 300 {
		t.Fatalf("%d issued entries, want the 300 live ones", st.IssuedEntries)
	}
}

// TestRecognisedTokenRace: two goroutines present the same remembered
// token at once; exactly one gets in. Run under -race.
func TestRecognisedTokenRace(t *testing.T) {
	g, _ := newTestGate(t, time.Minute)
	now := time.Now()
	s := subj("ana")
	for round := 0; round < 200; round++ {
		raw := issueRemembered(t, g, s, now).Encode()
		var wg sync.WaitGroup
		errs := make([]error, 2)
		start := make(chan struct{})
		for i := range errs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				_, errs[i] = g.Authenticate(s, raw, now)
			}(i)
		}
		close(start)
		wg.Wait()
		var winners int
		for _, err := range errs {
			switch {
			case err == nil:
				winners++
			case !errors.Is(err, authtoken.ErrReplay):
				t.Fatalf("round %d: loser's err = %v, want ErrReplay", round, err)
			}
		}
		if winners != 1 {
			t.Fatalf("round %d: %d presentations succeeded, want exactly 1", round, winners)
		}
	}
}

func TestVerifyOnlyGatesRememberNothing(t *testing.T) {
	leader, ring := newTestGate(t, time.Minute)
	now := time.Now()
	s := subj("ana", "analyst")
	keyset := keymgmt.NewPublicKeySet()
	data, _ := ring.ExportPublic()
	if err := keyset.Install(data); err != nil {
		t.Fatalf("install: %v", err)
	}
	for name, v := range map[string]*authtoken.Verifier{
		"read replica (no replay cache)": authtoken.NewVerifier(keyset, time.Minute, 0, -1),
		"nil Minter over a replay cache": authtoken.NewVerifier(keyset, time.Minute, 0, 0),
	} {
		replica := &authtoken.Gate{Verifier: v}
		for i := 0; i < 3; i++ {
			tok := issueRemembered(t, leader, s, now)
			if _, err := replica.Authenticate(s, tok.Encode(), now); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		if st := replica.Stats().Verifier; st.IssuedEntries != 0 || st.Recognised != 0 || st.Verified != 3 {
			t.Fatalf("%s: %+v, want nothing remembered, nothing recognised, 3 verified", name, st)
		}
	}
}

// TestTokenVerifiesOnAnotherGateWithAnEmptyTable is the any-replica path:
// two minting gates over one keyring; what one signs the other accepts by
// ed25519.Verify, and each remembers only its own signatures.
func TestTokenVerifiesOnAnotherGateWithAnEmptyTable(t *testing.T) {
	a, ring := newTestGate(t, time.Minute)
	m, err := authtoken.NewMinter(ring, credential.NewVerifier(), allowAll{}, time.Minute)
	if err != nil {
		t.Fatalf("minter: %v", err)
	}
	b := &authtoken.Gate{Verifier: authtoken.NewVerifier(ring, time.Minute, 0, 0), Minter: m}
	now := time.Now()
	s := subj("ana")

	fromA := issueRemembered(t, a, s, now)
	res, err := b.Authenticate(s, fromA.Encode(), now)
	if err != nil {
		t.Fatalf("a's token at b: %v", err)
	}
	if st := b.Verifier.Stats(); st.Recognised != 0 || st.Verified != 1 || st.IssuedEntries != 1 {
		t.Fatalf("b: %+v, want verified by signature and its own successor remembered", st)
	}
	recognisedAtA := a.Verifier.Stats().Recognised
	if _, err := a.Authenticate(s, res.Token.Encode(), now); err != nil {
		t.Fatalf("b's successor at a: %v", err)
	}
	if got := a.Verifier.Stats().Recognised; got != recognisedAtA {
		t.Fatalf("a recognised a token b signed")
	}
	// a still holds fromA's entry (b consumed the token, a never saw it);
	// presenting it at a is a recognised first use there.
	if _, err := a.Authenticate(s, fromA.Encode(), now); err != nil {
		t.Fatalf("a's own token at a: %v", err)
	}
	if got := a.Verifier.Stats().Recognised; got != recognisedAtA+1 {
		t.Fatalf("a did not recognise its own token")
	}
}
