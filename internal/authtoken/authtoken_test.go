package authtoken_test

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"webdbsec/internal/authtoken"
	"webdbsec/internal/credential"
	"webdbsec/internal/keymgmt"
	"webdbsec/internal/policy"
)

// allowAll is the permissive MintGate for tests that exercise the token
// machinery rather than the policy decision.
type allowAll struct{}

func (allowAll) AllowMint(*policy.Subject) bool { return true }

// denyAll refuses every mint.
type denyAll struct{}

func (denyAll) AllowMint(*policy.Subject) bool { return false }

func newTestGate(t testing.TB, ttl time.Duration) (*authtoken.Gate, *keymgmt.MintKeyring) {
	t.Helper()
	ring, err := keymgmt.NewMintKeyring(2)
	if err != nil {
		t.Fatalf("keyring: %v", err)
	}
	m, err := authtoken.NewMinter(ring, credential.NewVerifier(), allowAll{}, ttl)
	if err != nil {
		t.Fatalf("minter: %v", err)
	}
	v := authtoken.NewVerifier(ring, ttl, 30*time.Second, 1024)
	return &authtoken.Gate{Verifier: v, Minter: m}, ring
}

func subj(id string, roles ...string) *policy.Subject {
	return &policy.Subject{ID: id, Roles: roles}
}

func TestMintVerifyRoundTrip(t *testing.T) {
	g, _ := newTestGate(t, time.Minute)
	now := time.Now()
	s := subj("ana", "analyst")

	tok, err := g.Minter.Mint(s, now)
	if err != nil {
		t.Fatalf("mint: %v", err)
	}
	if tok.Epoch != 1 {
		t.Fatalf("epoch = %d, want 1", tok.Epoch)
	}
	if want := authtoken.BindingFingerprint(s); tok.Subject != want {
		t.Fatalf("subject fingerprint mismatch")
	}

	raw := tok.Encode()
	if len(raw) != authtoken.TokenLen {
		t.Fatalf("encoded length = %d, want %d", len(raw), authtoken.TokenLen)
	}
	got, err := g.Verifier.VerifyBound(raw, s, now.Add(time.Second))
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if got.Nonce != tok.Nonce || got.IssuedAt != tok.IssuedAt {
		t.Fatalf("decoded token differs from minted")
	}
}

func TestEncodeStringRoundTrip(t *testing.T) {
	g, _ := newTestGate(t, time.Minute)
	tok, err := g.Minter.Mint(subj("ana"), time.Now())
	if err != nil {
		t.Fatalf("mint: %v", err)
	}
	back, err := authtoken.DecodeString(tok.EncodeString())
	if err != nil {
		t.Fatalf("decode string: %v", err)
	}
	if !bytes.Equal(back.Encode(), tok.Encode()) {
		t.Fatalf("string round trip altered the token")
	}
}

func TestExpiredToken(t *testing.T) {
	g, _ := newTestGate(t, time.Minute)
	now := time.Now()
	s := subj("ana")
	tok, _ := g.Minter.Mint(s, now)

	_, err := g.Verifier.VerifyBound(tok.Encode(), s, now.Add(time.Minute+time.Second))
	if !errors.Is(err, authtoken.ErrExpired) {
		t.Fatalf("err = %v, want ErrExpired", err)
	}
	if st := g.Verifier.Stats(); st.Expired != 1 {
		t.Fatalf("expired counter = %d, want 1", st.Expired)
	}
}

func TestFutureBeyondSkew(t *testing.T) {
	g, _ := newTestGate(t, time.Minute)
	now := time.Now()
	s := subj("ana")
	// Minted "in the future": the verifier's clock is behind the minter's
	// by more than the 30s skew tolerance.
	tok, _ := g.Minter.Mint(s, now.Add(45*time.Second))

	_, err := g.Verifier.VerifyBound(tok.Encode(), s, now)
	if !errors.Is(err, authtoken.ErrFutureSkew) {
		t.Fatalf("err = %v, want ErrFutureSkew", err)
	}
	// Within skew it verifies.
	tok2, _ := g.Minter.Mint(s, now.Add(20*time.Second))
	if _, err := g.Verifier.VerifyBound(tok2.Encode(), s, now); err != nil {
		t.Fatalf("within-skew verify: %v", err)
	}
}

func TestReplayedNonce(t *testing.T) {
	g, _ := newTestGate(t, time.Minute)
	now := time.Now()
	s := subj("ana")
	tok, _ := g.Minter.Mint(s, now)
	raw := tok.Encode()

	if _, err := g.Verifier.VerifyBound(raw, s, now); err != nil {
		t.Fatalf("first presentation: %v", err)
	}
	_, err := g.Verifier.VerifyBound(raw, s, now.Add(time.Second))
	if !errors.Is(err, authtoken.ErrReplay) {
		t.Fatalf("second presentation: err = %v, want ErrReplay", err)
	}
	if st := g.Verifier.Stats(); st.Replayed != 1 || st.Verified != 1 {
		t.Fatalf("stats = %+v, want 1 verified / 1 replayed", st)
	}
}

func TestWrongKeyEpochAfterRotation(t *testing.T) {
	g, ring := newTestGate(t, time.Minute)
	now := time.Now()
	s := subj("ana")
	tok, _ := g.Minter.Mint(s, now)

	// One rotation: epoch 1 is still inside the keep-2 window.
	if _, err := ring.Rotate(); err != nil {
		t.Fatalf("rotate: %v", err)
	}
	if _, err := g.Verifier.VerifyBound(tok.Encode(), s, now); err != nil {
		t.Fatalf("verify within keep window: %v", err)
	}

	// Second rotation evicts epoch 1 entirely.
	tok2, _ := g.Minter.Mint(s, now) // epoch 2
	if _, err := ring.Rotate(); err != nil {
		t.Fatalf("rotate: %v", err)
	}
	_, err := g.Verifier.VerifyBound(tok2.Encode(), s, now)
	if err != nil {
		t.Fatalf("epoch 2 should survive one rotation under keep=2: %v", err)
	}
	fresh, _ := g.Minter.Mint(s, now)
	if fresh.Epoch != 3 {
		t.Fatalf("fresh epoch = %d, want 3", fresh.Epoch)
	}
	// Re-present the epoch-1 token (its step was consumed above, but the
	// epoch check fires first, which is what we assert).
	_, err = g.Verifier.VerifyBound(tok.Encode(), s, now)
	if !errors.Is(err, authtoken.ErrUnknownEpoch) {
		t.Fatalf("err = %v, want ErrUnknownEpoch", err)
	}
}

func TestTruncatedAndBitFlipped(t *testing.T) {
	g, _ := newTestGate(t, time.Minute)
	now := time.Now()
	s := subj("ana")
	tok, _ := g.Minter.Mint(s, now)
	raw := tok.Encode()

	for _, n := range []int{0, 1, authtoken.TokenLen - 1, authtoken.TokenLen + 1} {
		var cut []byte
		if n <= len(raw) {
			cut = raw[:n]
		} else {
			cut = append(append([]byte{}, raw...), 0)
		}
		if _, err := g.Verifier.Verify(cut, now); !errors.Is(err, authtoken.ErrMalformed) {
			t.Fatalf("len %d: err = %v, want ErrMalformed", n, err)
		}
	}

	// Flip one bit in every region of the layout: each must fail, none may
	// panic, and none may consume the real step.
	for _, off := range []int{1, 4, 14, 22, 40, 70, 133, 140, authtoken.TokenLen - 1} {
		flipped := append([]byte{}, raw...)
		flipped[off] ^= 0x80
		if _, err := g.Verifier.Verify(flipped, now); err == nil {
			t.Fatalf("bit flip at %d verified", off)
		}
	}
	// Version byte flip is malformed, not a signature failure.
	flipped := append([]byte{}, raw...)
	flipped[0] ^= 0xff
	if _, err := g.Verifier.Verify(flipped, now); !errors.Is(err, authtoken.ErrMalformed) {
		t.Fatalf("version flip: want ErrMalformed")
	}
	// The genuine token still works: nothing above consumed its nonce.
	if _, err := g.Verifier.VerifyBound(raw, s, now); err != nil {
		t.Fatalf("genuine token after tamper attempts: %v", err)
	}
}

func TestWrongSubjectFingerprint(t *testing.T) {
	g, _ := newTestGate(t, time.Minute)
	now := time.Now()
	ana := subj("ana", "analyst")
	tok, _ := g.Minter.Mint(ana, now)

	for _, other := range []*policy.Subject{
		subj("res", "analyst"),    // different ID
		subj("ana"),               // same ID, missing role
		subj("ana", "researcher"), // same ID, different role
	} {
		_, err := g.Verifier.VerifyBound(tok.Encode(), other, now)
		if !errors.Is(err, authtoken.ErrSubjectMismatch) {
			t.Fatalf("subject %v: err = %v, want ErrSubjectMismatch", other, err)
		}
	}
	// Role order must not matter: the fingerprint sorts roles.
	multi, _ := g.Minter.Mint(subj("bob", "a", "b"), now)
	if _, err := g.Verifier.VerifyBound(multi.Encode(), subj("bob", "b", "a"), now); err != nil {
		t.Fatalf("role order changed the binding: %v", err)
	}
	// The mismatches must not have burned ana's nonce.
	if _, err := g.Verifier.VerifyBound(tok.Encode(), ana, now); err != nil {
		t.Fatalf("rightful holder after mismatches: %v", err)
	}
}

// Wallet binding also excludes the wallet from the fingerprint: the token
// covers the serving identity only.
func TestBindingIgnoresWallet(t *testing.T) {
	s := subj("ana", "analyst")
	withWallet := &policy.Subject{ID: "ana", Roles: []string{"analyst"}, Wallet: credential.NewWallet("ana")}
	if authtoken.BindingFingerprint(s) != authtoken.BindingFingerprint(withWallet) {
		t.Fatalf("wallet changed the binding fingerprint")
	}
}

func TestMintWalletAllOrNothing(t *testing.T) {
	ring, _ := keymgmt.NewMintKeyring(1)
	auth, _ := credential.NewAuthority("hospital")
	rogue, _ := credential.NewAuthority("rogue")
	cv := credential.NewVerifier()
	cv.TrustAuthority(auth)
	m, err := authtoken.NewMinter(ring, cv, allowAll{}, time.Minute)
	if err != nil {
		t.Fatalf("minter: %v", err)
	}
	now := time.Now()

	good := credential.NewWallet("ana")
	good.Add(auth.Issue("clinician", "ana", nil))
	if _, err := m.Mint(&policy.Subject{ID: "ana", Wallet: good}, now); err != nil {
		t.Fatalf("fully-valid wallet refused: %v", err)
	}

	// One untrusted credential poisons the whole wallet.
	mixed := credential.NewWallet("ana")
	mixed.Add(auth.Issue("clinician", "ana", nil))
	mixed.Add(rogue.Issue("admin", "ana", nil))
	_, err = m.Mint(&policy.Subject{ID: "ana", Wallet: mixed}, now)
	if !errors.Is(err, authtoken.ErrWalletInvalid) {
		t.Fatalf("mixed wallet: err = %v, want ErrWalletInvalid", err)
	}

	// A wallet belonging to someone else is refused before verification.
	stolen := credential.NewWallet("res")
	stolen.Add(auth.Issue("clinician", "res", nil))
	_, err = m.Mint(&policy.Subject{ID: "ana", Wallet: stolen}, now)
	if !errors.Is(err, authtoken.ErrWalletInvalid) {
		t.Fatalf("stolen wallet: err = %v, want ErrWalletInvalid", err)
	}

	// A credential about a different subject smuggled into the wallet
	// (bypassing Wallet.Add via direct construction) is refused.
	smuggled := &credential.Wallet{Subject: "ana", Credentials: []*credential.Credential{
		auth.Issue("clinician", "res", nil),
	}}
	_, err = m.Mint(&policy.Subject{ID: "ana", Wallet: smuggled}, now)
	if !errors.Is(err, authtoken.ErrWalletInvalid) {
		t.Fatalf("smuggled credential: err = %v, want ErrWalletInvalid", err)
	}
}

func TestMintGateDenied(t *testing.T) {
	ring, _ := keymgmt.NewMintKeyring(1)
	m, err := authtoken.NewMinter(ring, credential.NewVerifier(), denyAll{}, time.Minute)
	if err != nil {
		t.Fatalf("minter: %v", err)
	}
	_, err = m.Mint(subj("ana"), time.Now())
	if !errors.Is(err, authtoken.ErrMintDenied) {
		t.Fatalf("err = %v, want ErrMintDenied", err)
	}
	if st := m.Stats(); st.Denied != 1 || st.Minted != 0 {
		t.Fatalf("stats = %+v, want 1 denied / 0 minted", st)
	}
}

func TestMinterConstructorRefusals(t *testing.T) {
	ring, _ := keymgmt.NewMintKeyring(1)
	if _, err := authtoken.NewMinter(nil, nil, allowAll{}, time.Minute); err == nil {
		t.Fatalf("nil keys accepted")
	}
	if _, err := authtoken.NewMinter(ring, nil, nil, time.Minute); err == nil {
		t.Fatalf("nil gate accepted")
	}
	if _, err := authtoken.NewMinter(ring, nil, allowAll{}, 0); err == nil {
		t.Fatalf("zero ttl accepted")
	}
}

func TestGateFastPathRollsSuccessor(t *testing.T) {
	g, _ := newTestGate(t, time.Minute)
	now := time.Now()
	s := subj("ana", "analyst")

	// Bootstrap on the wallet-less slow path is impossible; use Mint.
	first, err := g.Minter.Mint(s, now)
	if err != nil {
		t.Fatalf("mint: %v", err)
	}
	raw := first.Encode()
	// Chain several hops: each Authenticate consumes the presented token
	// and hands back its successor. A directly minted token is not this
	// gate's chain, so the first successor anchors a new one; the rest
	// are its next steps, with no signature.
	var chain uint64
	for hop := 0; hop < 5; hop++ {
		res, err := g.Authenticate(s, raw, now.Add(time.Duration(hop)*time.Second))
		if err != nil {
			t.Fatalf("hop %d: %v", hop, err)
		}
		if res.Path != authtoken.PathToken {
			t.Fatalf("hop %d: path = %s, want token", hop, res.Path)
		}
		if hop == 0 {
			chain = res.Token.Nonce
		}
		if res.Token == nil || res.Token.Nonce != chain || res.Token.Step != uint8(hop+1) {
			t.Fatalf("hop %d: successor %+v, want step %d of one new chain", hop, res.Token, hop+1)
		}
		if want := time.Unix(res.Token.IssuedAt, 0).Add(time.Minute); !res.ExpiresAt.Equal(want) {
			t.Fatalf("hop %d: ExpiresAt = %v, want the anchor's %v", hop, res.ExpiresAt, want)
		}
		// The spent token stays spent.
		if _, err := g.Authenticate(s, raw, now); !errors.Is(err, authtoken.ErrReplay) {
			t.Fatalf("hop %d: spent token re-presented: err = %v, want ErrReplay", hop, err)
		}
		raw = res.Token.Encode()
	}
	st := g.Stats()
	if st.FastPath != 5 || st.SlowPath != 0 || st.Advanced != 4 || st.Mint.Minted != 2 {
		t.Fatalf("stats = %+v, want 5 fast / 0 slow / 4 advanced / 2 signatures", st)
	}
	if st.FastPathHitRate != 1.0 {
		t.Fatalf("hit rate = %v, want 1.0", st.FastPathHitRate)
	}
}

func TestGateWalletFallbackAndNoCredential(t *testing.T) {
	ring, _ := keymgmt.NewMintKeyring(1)
	auth, _ := credential.NewAuthority("hospital")
	cv := credential.NewVerifier()
	cv.TrustAuthority(auth)
	m, _ := authtoken.NewMinter(ring, cv, allowAll{}, time.Minute)
	g := &authtoken.Gate{Verifier: authtoken.NewVerifier(ring, time.Minute, 0, 0), Minter: m}
	now := time.Now()

	w := credential.NewWallet("ana")
	w.Add(auth.Issue("clinician", "ana", nil))
	withWallet := &policy.Subject{ID: "ana", Roles: []string{"analyst"}, Wallet: w}

	// Wallet-only request: slow path, result carries a token.
	res, err := g.Authenticate(withWallet, nil, now)
	if err != nil || res.Path != authtoken.PathWallet || res.Token == nil {
		t.Fatalf("wallet path: res=%+v err=%v", res, err)
	}

	// Expired token + wallet: falls back to the full path, succeeds.
	stale, _ := g.Minter.Mint(withWallet, now.Add(-2*time.Minute))
	res, err = g.Authenticate(withWallet, stale.Encode(), now)
	if err != nil || res.Path != authtoken.PathWallet {
		t.Fatalf("fallback: res=%+v err=%v", res, err)
	}

	// Expired token, no wallet: rejected.
	bare := subj("ana", "analyst")
	stale2, _ := g.Minter.Mint(bare, now.Add(-2*time.Minute))
	if _, err := g.Authenticate(bare, stale2.Encode(), now); !errors.Is(err, authtoken.ErrExpired) {
		t.Fatalf("rejected path: err = %v, want ErrExpired", err)
	}

	// No material at all: refused, whoever the request names.
	if res, err := g.Authenticate(subj("ana", "analyst"), nil, now); !errors.Is(err, authtoken.ErrNoCredential) || res != nil {
		t.Fatalf("no material: res=%+v err=%v, want ErrNoCredential", res, err)
	}

	st := g.Stats()
	if st.SlowPath != 2 || st.TokenFallbacks != 1 || st.Rejected != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLeaderMintedVerifiesOnReplicaKeySet(t *testing.T) {
	// Leader side: its own keyring signs and verifies.
	g, ring := newTestGate(t, time.Minute)
	now := time.Now()
	s := subj("ana", "analyst")
	tok, _ := g.Minter.Mint(s, now)

	// Replica side: verify against the shipped public set only.
	set := keymgmt.NewPublicKeySet()
	rv := authtoken.NewVerifier(set, time.Minute, 0, 0)
	if _, err := rv.VerifyBound(tok.Encode(), s, now); !errors.Is(err, authtoken.ErrUnknownEpoch) {
		t.Fatalf("empty set: err = %v, want ErrUnknownEpoch", err)
	}
	raw, gen := ring.ExportPublic()
	if gen != 1 {
		t.Fatalf("gen = %d, want 1", gen)
	}
	if err := set.Install(raw); err != nil {
		t.Fatalf("install: %v", err)
	}
	if _, err := rv.VerifyBound(tok.Encode(), s, now); err != nil {
		t.Fatalf("replica verify: %v", err)
	}

	// Rotate past the keep window; the re-shipped set kills the old epoch.
	ring.Rotate()
	ring.Rotate()
	raw2, gen2 := ring.ExportPublic()
	if gen2 != 3 {
		t.Fatalf("gen after two rotations = %d, want 3", gen2)
	}
	if err := set.Install(raw2); err != nil {
		t.Fatalf("reinstall: %v", err)
	}
	tok2, _ := g.Minter.Mint(s, now)
	_, err := rv.VerifyBound(tok2.Encode(), s, now)
	if err != nil {
		t.Fatalf("current-epoch token on replica: %v", err)
	}
	if _, err := rv.VerifyBound(tok.Encode(), s, now); !errors.Is(err, authtoken.ErrUnknownEpoch) {
		t.Fatalf("rotated-away token: err = %v, want ErrUnknownEpoch", err)
	}
}

// TestReplayCacheUnderConcurrency is the -race workout: many goroutines
// race distinct tokens plus deliberate duplicates through one verifier.
func TestReplayCacheUnderConcurrency(t *testing.T) {
	g, _ := newTestGate(t, time.Minute)
	now := time.Now()
	s := subj("ana")

	const workers = 8
	const perWorker = 40
	mint := func(n int) [][]byte {
		out := make([][]byte, n)
		for i := range out {
			tok, err := g.Minter.Mint(s, now)
			if err != nil {
				t.Fatalf("mint: %v", err)
			}
			out[i] = tok.Encode()
		}
		return out
	}
	unique := mint(workers * perWorker) // each consumed by exactly one worker
	shared := mint(perWorker)           // raced by every worker

	var wg sync.WaitGroup
	var dup atomic64
	for wkr := 0; wkr < workers; wkr++ {
		wg.Add(1)
		go func(base int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := g.Verifier.VerifyBound(unique[base*perWorker+i], s, now); err != nil {
					t.Errorf("unique token failed: %v", err)
				}
				// All workers race the shared pool: exactly one consumer
				// may win each token.
				if _, err := g.Verifier.VerifyBound(shared[i], s, now); err == nil {
					dup.add(1)
				}
			}
		}(wkr)
	}
	wg.Wait()

	if got, want := dup.load(), uint64(perWorker); got != want {
		t.Fatalf("shared-pool wins = %d, want exactly %d", got, want)
	}
	st := g.Verifier.Stats()
	if want := uint64(workers*perWorker + perWorker); st.Verified != want {
		t.Fatalf("verified = %d, want %d", st.Verified, want)
	}
	if want := uint64((workers - 1) * perWorker); st.Replayed != want {
		t.Fatalf("replayed = %d, want %d", st.Replayed, want)
	}
}

type atomic64 struct {
	mu sync.Mutex
	n  uint64 // seclint:guardedby mu
}

func (a *atomic64) add(d uint64) { a.mu.Lock(); a.n += d; a.mu.Unlock() }
func (a *atomic64) load() uint64 { a.mu.Lock(); defer a.mu.Unlock(); return a.n }

// TestReplayCacheEviction fills a tiny cache beyond capacity and checks
// evictions are counted rather than silently widening the window.
func TestReplayCacheEviction(t *testing.T) {
	ring, _ := keymgmt.NewMintKeyring(1)
	m, _ := authtoken.NewMinter(ring, nil, allowAll{}, time.Hour)
	// Capacity 16 is the floor; shard-level capacity is 16/16 = 1.
	v := authtoken.NewVerifier(ring, time.Hour, 0, 16)
	now := time.Now()
	s := subj("ana")
	for i := 0; i < 200; i++ {
		tok, _ := m.Mint(s, now)
		if _, err := v.VerifyBound(tok.Encode(), s, now); err != nil {
			t.Fatalf("verify %d: %v", i, err)
		}
	}
	st := v.Stats()
	if st.ReplayEvictions == 0 {
		t.Fatalf("expected capacity evictions, got none (entries=%d)", st.ReplayEntries)
	}
	if st.ReplayEntries > 16 {
		t.Fatalf("cache grew past capacity: %d entries", st.ReplayEntries)
	}
}

// TestReadReplicaGate covers the verify-only configuration a follower
// runs: negative replay capacity (no nonce consumption — the replica
// cannot sign successors, so tokens must stay presentable) and a nil
// Minter (fast path only; wallet traffic is refused toward the leader).
func TestReadReplicaGate(t *testing.T) {
	leaderGate, ring := newTestGate(t, time.Minute)
	now := time.Now()
	s := subj("ana", "analyst")
	tok, err := leaderGate.Minter.Mint(s, now)
	if err != nil {
		t.Fatalf("mint: %v", err)
	}

	keyset := keymgmt.NewPublicKeySet()
	data, _ := ring.ExportPublic()
	if err := keyset.Install(data); err != nil {
		t.Fatalf("install: %v", err)
	}
	replica := &authtoken.Gate{Verifier: authtoken.NewVerifier(keyset, time.Minute, 0, -1)}

	// The same token authenticates repeatedly: no consumption, no successor.
	for i := 0; i < 3; i++ {
		res, err := replica.Authenticate(s, tok.Encode(), now)
		if err != nil {
			t.Fatalf("replica verify %d: %v", i, err)
		}
		if res.Path != authtoken.PathToken || res.Token != nil {
			t.Fatalf("replica result = %+v, want token path with no successor", res)
		}
		if want := time.Unix(tok.IssuedAt, 0).Add(time.Minute); !res.ExpiresAt.Equal(want) {
			t.Fatalf("ExpiresAt = %v, want %v", res.ExpiresAt, want)
		}
	}

	// Wallet traffic cannot qualify here.
	ws := subj("bea")
	ws.Wallet = credential.NewWallet("bea")
	if _, err := replica.Authenticate(ws, nil, now); !errors.Is(err, authtoken.ErrMintUnavailable) {
		t.Fatalf("wallet on replica: err = %v, want ErrMintUnavailable", err)
	}
	// A dead token with a wallet attached is still refused (no fallback mint).
	if _, err := replica.Authenticate(ws, tok.Encode(), now); err == nil {
		t.Fatalf("foreign token + wallet on replica: expected refusal")
	}

	st := replica.Stats()
	if st.FastPath != 3 || st.Rejected != 2 {
		t.Fatalf("stats = %+v, want 3 fast / 2 rejected", st)
	}
	// TTL still applies on the replica even without nonce state.
	if _, err := replica.Authenticate(s, tok.Encode(), now.Add(2*time.Minute)); !errors.Is(err, authtoken.ErrExpired) {
		t.Fatalf("expired on replica: err = %v, want ErrExpired", err)
	}
}
