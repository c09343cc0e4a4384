package authtoken

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"webdbsec/internal/credential"
	"webdbsec/internal/policy"
)

// Gate is the request-time authentication gate the serving stack puts in
// front of its handlers: consult the token verifier first, fall back to
// the full wallet path. The fast path costs a step consume and, for the
// successor, the chain's next step — a few SHA-256 blocks — when the
// gate holds the chain's seed, or one Ed25519 signature over a fresh
// chain once every ChainLen steps; one Ed25519 verification is paid only
// when the presented step was not handed out by this gate (another
// node's, or one the issued table has since dropped). The slow path is a
// complete mint — full wallet verification and the MintGate policy
// decision — whose product is a token, so a wallet-authenticated
// response upgrades the client to the fast path for free.
//
// A nil *Gate is authentication switched off: Authorize serves the
// identity a request asserts.
type Gate struct {
	Verifier *Verifier
	// Minter is nil on a read replica: the gate then verifies tokens but
	// cannot roll successors or evaluate wallets — see Authenticate.
	Minter *Minter

	fast      atomic.Uint64
	advanced  atomic.Uint64
	slow      atomic.Uint64
	rejected  atomic.Uint64
	fallbacks atomic.Uint64
}

// Auth paths, as reported in AuthResult.Path and counted in GateStats.
const (
	// PathToken: authenticated by token verification alone.
	PathToken = "token"
	// PathWallet: authenticated by the full wallet evaluation (and
	// upgraded — the result carries a fresh token).
	PathWallet = "wallet"
)

// ErrNoCredential: the request presented neither a token nor a wallet.
var ErrNoCredential = errors.New("authtoken: no credential presented")

// NewGate builds the mint-capable gate a serving node runs: tokens signed
// and verified under keys with lifetime ttl, wallets checked by creds, and
// every first signature behind mintGate's policy decision. A read replica
// builds a verify-only &Gate{Verifier: ...} instead.
func NewGate(keys interface {
	SigningKeys
	VerifyKeys
}, creds *credential.Verifier, mintGate MintGate, ttl time.Duration) (*Gate, error) {
	minter, err := NewMinter(keys, creds, mintGate, ttl)
	if err != nil {
		return nil, err
	}
	return &Gate{Verifier: NewVerifier(keys, ttl, 0, 0), Minter: minter}, nil
}

// AuthResult is a successful authentication.
type AuthResult struct {
	// Path says which path authenticated the request.
	Path string
	// Token is the credential the client should present next: the
	// successor of a consumed token, or the freshly minted product of a
	// wallet evaluation. Nil on a read replica, which signs nothing.
	Token *Token
	// ExpiresAt is when Token ages out (clients refresh against it).
	ExpiresAt time.Time
}

// Authenticate authenticates subject s presenting rawToken (nil when the
// client holds none) at instant now.
//
//   - A valid token bound to s's serving fingerprint authenticates the
//     request and is consumed; the result carries its successor.
//   - A failed or absent token falls back to the full wallet path when s
//     carries a wallet: a complete Mint evaluation, whose token rides
//     back on the result.
//   - Neither token nor wallet is ErrNoCredential.
//
// A non-nil error means the request is refused; it is counted in Rejected.
func (g *Gate) Authenticate(s *policy.Subject, rawToken []byte, now time.Time) (*AuthResult, error) {
	if len(rawToken) > 0 {
		fp := BindingFingerprint(s)
		t, ref, err := g.Verifier.verifyBound(rawToken, &fp, now)
		if err == nil {
			if g.Minter == nil {
				// Read replica: the token authenticates, but no successor
				// can be signed here — the client keeps presenting the
				// same token (the replica's verifier runs in read-replica
				// mode, which does not consume steps).
				g.fast.Add(1)
				return &AuthResult{Path: PathToken, ExpiresAt: t.expiresAt(g.Verifier.TTL())}, nil
			}
			succ, mintErr := g.successor(t, ref, now)
			if mintErr != nil {
				g.rejected.Add(1)
				return nil, fmt.Errorf("authtoken: roll successor: %w", mintErr)
			}
			g.fast.Add(1)
			return &AuthResult{Path: PathToken, Token: succ, ExpiresAt: succ.expiresAt(g.Minter.TTL())}, nil
		}
		if s.Wallet == nil || g.Minter == nil {
			g.rejected.Add(1)
			return nil, err
		}
		// Token dead (expired, rotated away, replay after a lost
		// response) but the client also presented its wallet: re-qualify
		// from scratch.
		g.fallbacks.Add(1)
	}
	if s.Wallet != nil {
		if g.Minter == nil {
			g.rejected.Add(1)
			return nil, ErrMintUnavailable
		}
		t, err := g.mint(s, now)
		if err != nil {
			g.rejected.Add(1)
			return nil, err
		}
		g.slow.Add(1)
		return &AuthResult{Path: PathWallet, Token: t, ExpiresAt: t.expiresAt(g.Minter.TTL())}, nil
	}
	g.rejected.Add(1)
	return nil, ErrNoCredential
}

// mint is Minter.Mint through this gate: the full evaluation, then a
// signature the gate's verifier remembers.
func (g *Gate) mint(s *policy.Subject, now time.Time) (*Token, error) {
	if err := g.Minter.qualify(s); err != nil {
		return nil, err
	}
	return g.sign(BindingFingerprint(s), now)
}

// successor is what a client that just spent t presents next: the next
// step of t's chain when ref holds its seed, the chain has steps left, its
// anchor has at least half its TTL to run — so a rolling client never
// holds a token with less than half a TTL ahead of it — and its key is
// still the current mint key, so a rotation moves every rolling client to
// the new epoch on its next request; otherwise the first step of a
// freshly signed chain.
func (g *Gate) successor(t *Token, ref *chainRef, now time.Time) (*Token, error) {
	if ref != nil && t.Step < ChainLen && now.Before(t.expiresAt(g.Minter.TTL()/2)) && t.Epoch == g.Minter.epoch() {
		if next := t.next(ref.seed); next != nil {
			g.Verifier.remember(ref.key, next, ref.seed, now)
			g.advanced.Add(1)
			return next, nil
		}
	}
	return g.sign(t.Subject, now)
}

// sign issues the first step of a new chain for an established
// fingerprint and has the verifier remember it, so its presentation back
// at this gate skips the curve check and its successor is the chain's
// next step (see Verifier.remember).
func (g *Gate) sign(fp [16]byte, now time.Time) (*Token, error) {
	t, seed, pub, err := g.Minter.mintBound(fp, now)
	if err != nil {
		return nil, err
	}
	g.Verifier.remember(pub, t, seed, now)
	return t, nil
}

// GateStats aggregates the gate's path counters with the verifier's and
// minter's — the one struct debugz publishes per serving surface.
type GateStats struct {
	// FastPath counts token-authenticated requests, Advanced those among
	// them whose successor was their chain's next step (no signature),
	// SlowPath full wallet evaluations, Rejected refusals (no material
	// among them), TokenFallbacks requests whose token failed but whose
	// wallet then re-qualified them.
	FastPath       uint64
	Advanced       uint64
	SlowPath       uint64
	Rejected       uint64
	TokenFallbacks uint64
	// FastPathHitRate is FastPath over all authenticated traffic
	// (fast+slow), the headline number for the fast path's reach.
	FastPathHitRate float64
	Verifier        VerifierStats
	Mint            MintStats
}

// Stats snapshots the gate and its components.
func (g *Gate) Stats() GateStats {
	fast, slow := g.fast.Load(), g.slow.Load()
	st := GateStats{
		FastPath:       fast,
		Advanced:       g.advanced.Load(),
		SlowPath:       slow,
		Rejected:       g.rejected.Load(),
		TokenFallbacks: g.fallbacks.Load(),
		Verifier:       g.Verifier.Stats(),
	}
	if g.Minter != nil {
		st.Mint = g.Minter.Stats()
	}
	if fast+slow > 0 {
		st.FastPathHitRate = float64(fast) / float64(fast+slow)
	}
	return st
}
