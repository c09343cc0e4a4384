package authtoken

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"webdbsec/internal/credential"
	"webdbsec/internal/policy"
)

// SigningKeys supplies the current mint key. Implemented by
// keymgmt.MintKeyring; the epoch stamps the token so rotation
// invalidates old tokens once their epoch leaves the retention window.
type SigningKeys interface {
	SigningKey() (epoch uint32, key ed25519.PrivateKey)
}

// MintGate is the real access-control decision a mint must pass — the
// anchor of the whole fast path's soundness argument. A token attests
// "this subject passed full qualification once"; that attestation is
// only worth trusting if the mint site actually ran a policy decision.
// Deployments implement it over their authorization machinery (securedb
// gates on the System R grant catalog), and seclint's gatecheck enforces
// that Mint entry points reach it: a token-verified entry point counts
// as gated only because mint sites provably are.
//
// seclint:gate
type MintGate interface {
	// AllowMint decides whether the fully-evaluated subject may hold a
	// token. It runs after wallet verification, so implementations may
	// trust s.Wallet's signatures.
	AllowMint(s *policy.Subject) bool
}

// Mint refusals.
var (
	// ErrMintDenied: the gate's policy decision said no.
	ErrMintDenied = errors.New("authtoken: mint denied by policy")
	// ErrWalletInvalid: the presented wallet did not fully verify. Mint
	// refuses partially-valid wallets outright instead of attesting the
	// valid subset: a token asserts the subject's *entire* presented
	// qualification was checked, and letting an invalid credential ride
	// along would let the fast path diverge from what a full re-evaluation
	// of the same wallet would decide.
	ErrWalletInvalid = errors.New("authtoken: wallet failed full credential verification")
	// ErrMintUnavailable: this surface cannot mint (a read replica holds
	// only the public verify-key set) — wallet qualification happens at
	// the leader's mint endpoint.
	ErrMintUnavailable = errors.New("authtoken: minting unavailable on this node")
)

// Minter issues tokens after the full slow-path evaluation: every wallet
// credential verified against the trusted issuer keys, subject binding
// on each credential, then the MintGate policy decision. Only then does
// it sign — so holding a token is evidence the whole evaluation ran.
type Minter struct {
	keys  SigningKeys
	creds *credential.Verifier
	gate  MintGate
	ttl   time.Duration

	minted atomic.Uint64
	denied atomic.Uint64
}

// NewMinter builds a minter. gate is mandatory — a gate-less minter
// would be an ungated entry into every token-accepting surface. creds
// may be nil only when no wallets are ever presented (the minter then
// refuses any wallet-bearing subject).
func NewMinter(keys SigningKeys, creds *credential.Verifier, gate MintGate, ttl time.Duration) (*Minter, error) {
	if keys == nil {
		return nil, fmt.Errorf("authtoken: minter needs signing keys")
	}
	if gate == nil {
		return nil, fmt.Errorf("authtoken: minter needs a MintGate — an ungated mint would void the fast path's soundness")
	}
	if ttl <= 0 {
		return nil, fmt.Errorf("authtoken: token ttl must be positive, got %s", ttl)
	}
	return &Minter{keys: keys, creds: creds, gate: gate, ttl: ttl}, nil
}

// TTL returns the advertised token lifetime (clients refresh against it).
func (m *Minter) TTL() time.Duration { return m.ttl }

// Mint runs the full evaluation for s and, if it passes, issues a token
// bound to s's serving fingerprint at instant now.
func (m *Minter) Mint(s *policy.Subject, now time.Time) (*Token, error) {
	if err := m.qualify(s); err != nil {
		return nil, err
	}
	t, _, _, err := m.mintBound(BindingFingerprint(s), now)
	return t, err
}

// qualify is the evaluation every first signature stands on: the wallet
// in full, then the MintGate policy decision.
func (m *Minter) qualify(s *policy.Subject) error {
	if s == nil || s.ID == "" {
		m.denied.Add(1)
		return fmt.Errorf("%w: no subject", ErrMintDenied)
	}
	if s.Wallet != nil {
		if err := m.checkWallet(s); err != nil {
			m.denied.Add(1)
			return err
		}
	}
	if !m.gate.AllowMint(s) {
		m.denied.Add(1)
		return fmt.Errorf("%w: subject %s", ErrMintDenied, s.ID)
	}
	return nil
}

// checkWallet is the full credential evaluation: the wallet must belong
// to the subject, every credential must speak about the subject, and
// every signature must verify against a trusted issuer. All-or-nothing —
// see ErrWalletInvalid.
func (m *Minter) checkWallet(s *policy.Subject) error {
	w := s.Wallet
	if w.Subject != s.ID {
		return fmt.Errorf("%w: wallet belongs to %q, presented by %q", ErrWalletInvalid, w.Subject, s.ID)
	}
	for _, c := range w.Credentials {
		if c.Subject != s.ID {
			return fmt.Errorf("%w: credential %q issued to %q, presented by %q", ErrWalletInvalid, c.Type, c.Subject, s.ID)
		}
	}
	if m.creds == nil {
		return fmt.Errorf("%w: no credential verifier configured", ErrWalletInvalid)
	}
	if valid := m.creds.Valid(w); len(valid) != len(w.Credentials) {
		return fmt.Errorf("%w: %d of %d credentials verify", ErrWalletInvalid, len(valid), len(w.Credentials))
	}
	return nil
}

// mintBound signs a new chain for an already-established fingerprint and
// returns its first step, the chain's seed and the public half of the key
// that signed it (what the Gate's verifier remembers the chain under). It
// is unexported on purpose: inside this package the only callers are Mint
// and Gate.mint (after the full evaluation above) and the Gate's successor
// roll (after a successful verification, which chains back to some Mint)
// — no path reaches a signature without a policy decision at its root.
func (m *Minter) mintBound(fp [16]byte, now time.Time) (*Token, *[sha256.Size]byte, ed25519.PublicKey, error) {
	var rnd [8 + sha256.Size]byte
	if _, err := rand.Read(rnd[:]); err != nil {
		return nil, nil, nil, fmt.Errorf("authtoken: nonce and seed: %w", err)
	}
	epoch, key := m.keys.SigningKey()
	if len(key) != ed25519.PrivateKeySize {
		return nil, nil, nil, fmt.Errorf("authtoken: no usable mint key for epoch %d", epoch)
	}
	seed := new([sha256.Size]byte)
	copy(seed[:], rnd[8:])
	t := &Token{
		Epoch:    epoch,
		IssuedAt: now.Unix(),
		Nonce:    binary.BigEndian.Uint64(rnd[:8]),
		Subject:  fp,
		Step:     1,
		Link:     hashN(*seed, ChainLen-1),
	}
	t.Tip = sha256.Sum256(t.Link[:])
	copy(t.Sig[:], ed25519.Sign(key, t.Encode()[:anchorLen]))
	m.minted.Add(1)
	return t, seed, ed25519.PublicKey(key[ed25519.SeedSize:]), nil
}

// epoch is the key epoch new chains are signed under.
func (m *Minter) epoch() uint32 {
	epoch, _ := m.keys.SigningKey()
	return epoch
}

// MintStats is the counter snapshot debugz publishes.
type MintStats struct {
	// Minted counts signatures: each one anchors a chain of ChainLen steps.
	Minted uint64
	Denied uint64
}

// Stats snapshots the minter's counters.
func (m *Minter) Stats() MintStats {
	return MintStats{Minted: m.minted.Load(), Denied: m.denied.Load()}
}
