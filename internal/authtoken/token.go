// Package authtoken is the stateless authentication fast path: a
// fixed-layout binary token, minted once after a full wallet/credential
// evaluation has succeeded, that any node holding the epoch public-key
// set can verify with a single Ed25519 check and a short hash chain — no
// credential store, no policy-base lookup, no per-request signature sweep
// over the wallet.
//
// The paper's subject model (§3.1) qualifies subjects by credentials, and
// every request re-derives that qualification: each wallet signature is
// re-verified and the policy base re-consulted. PR 2's decision cache
// made the *decision* cheap; this package makes the *qualification*
// cheap, following the trust-brokerage separation — mint once after the
// full trust decision, verify cheaply everywhere — and the offline
// verifier idiom of constrained-device credential tokens.
//
// A token is one step of a signed hash chain. The signature covers an
// anchor that commits to the chain's tip; each step reveals the next
// preimage towards the seed, which only the signing node holds (PayWord,
// S/Key). Token layout (166 bytes, integers big-endian):
//
//	offset  size  field
//	     0     1  version (currently 2)
//	     1     4  key epoch — which mint key signed the anchor
//	     5     8  issued-at, unix seconds
//	    13     8  nonce — random; names the chain
//	    21    16  subject fingerprint — the decision-cache identity
//	    37    32  chain tip T = H^ChainLen(seed), H = SHA-256
//	    69    64  Ed25519 signature over bytes [0,69) — the anchor
//	   133     1  step k, 1..ChainLen
//	   134    32  link L_k = H^(ChainLen-k)(seed), so that H^k(L_k) = T
//
// The subject fingerprint is policy.Subject.Fingerprint over the
// *serving* identity (ID + roles, nil wallet): the identity every
// post-auth decision — row policies, privacy constraints, decision
// caches — actually observes, since request paths carry no wallet once
// qualification is done. Binding it means a token cannot be replayed
// under a different identity or role set, and cached decisions key
// exactly as they would for the slow path.
//
// Tokens are single-use: every successful verification consumes the
// step (the highest step of each chain is remembered in a sharded,
// bounded replay cache, so it and every earlier step are spent) and the
// server rolls the token, returning a successor in the response. The
// successor is the chain's next step when this node holds the seed, the
// chain has steps left and its anchor has at least half its TTL to run;
// otherwise it is step 1 of a freshly signed chain under the *current*
// key epoch. So a rolling client costs one signature per ChainLen
// requests, a holder of step k cannot compute step k+1, and a client
// still always holds exactly one live token: a lost response degrades to
// a re-mint through the full wallet path, and key rotation migrates
// clients as new anchors pick up the new epoch.
package authtoken

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"time"
)

// Version is the only token version this package mints or verifies.
const Version = 2

// ChainLen is the number of steps one signed anchor pays for.
const ChainLen = 32

// Layout constants. The signature covers the anchor, everything before it.
const (
	anchorLen = 69
	stepOff   = anchorLen + ed25519.SignatureSize // 133
	// TokenLen is the exact encoded size; Decode rejects anything else.
	TokenLen = stepOff + 1 + sha256.Size // 166
)

// ErrMalformed reports auth material that is not structurally valid: a
// token of the wrong length, an unknown version, a step outside
// 1..ChainLen — anything Decode cannot even parse — or a token or wallet
// whose transport encoding does not decode.
var ErrMalformed = errors.New("authtoken: malformed auth material")

// Token is the decoded form.
type Token struct {
	// Epoch names the mint key that signed the anchor; the verifier looks
	// it up in its epoch public-key set.
	Epoch uint32
	// IssuedAt is the anchor's mint instant, unix seconds. The verifier
	// derives expiry (IssuedAt+TTL) and the future-skew bound from it.
	IssuedAt int64
	// Nonce is random and names the chain; the replay cache keys on it.
	//
	// seclint:secret
	Nonce uint64
	// Subject is the raw 16-byte subject fingerprint the token is bound
	// to (the hex-decoded policy.Subject.Fingerprint of the serving
	// identity).
	Subject [16]byte
	// Tip is the chain's end, H^ChainLen(seed), fixed by the signature.
	Tip [sha256.Size]byte
	// Sig is the issuer's Ed25519 signature over the anchor.
	Sig [ed25519.SignatureSize]byte
	// Step is this token's position on the chain, 1..ChainLen.
	Step uint8
	// Link is the step's preimage: H^Step(Link) = Tip.
	//
	// seclint:secret
	Link [sha256.Size]byte
}

// Encode renders the token in the fixed wire layout.
func (t *Token) Encode() []byte {
	out := make([]byte, TokenLen)
	out[0] = Version
	binary.BigEndian.PutUint32(out[1:5], t.Epoch)
	binary.BigEndian.PutUint64(out[5:13], uint64(t.IssuedAt))
	binary.BigEndian.PutUint64(out[13:21], t.Nonce)
	copy(out[21:37], t.Subject[:])
	copy(out[37:anchorLen], t.Tip[:])
	copy(out[anchorLen:stepOff], t.Sig[:])
	out[stepOff] = t.Step
	copy(out[stepOff+1:], t.Link[:])
	return out
}

// EncodeString renders the token for HTTP transport (unpadded URL-safe
// base64 — header- and form-value-clean).
func (t *Token) EncodeString() string {
	return base64.RawURLEncoding.EncodeToString(t.Encode())
}

// Decode parses the fixed layout. It checks structure only — length,
// version and step range; signature, chain, freshness and replay are the
// verifier's job.
// seclint:sanitizer
func Decode(raw []byte) (*Token, error) {
	if len(raw) != TokenLen {
		return nil, fmt.Errorf("%w: %d bytes, want %d", ErrMalformed, len(raw), TokenLen)
	}
	if raw[0] != Version {
		return nil, fmt.Errorf("%w: version %d, want %d", ErrMalformed, raw[0], Version)
	}
	if step := raw[stepOff]; step < 1 || step > ChainLen {
		return nil, fmt.Errorf("%w: step %d, want 1..%d", ErrMalformed, step, ChainLen)
	}
	t := &Token{
		Epoch:    binary.BigEndian.Uint32(raw[1:5]),
		IssuedAt: int64(binary.BigEndian.Uint64(raw[5:13])),
		Nonce:    binary.BigEndian.Uint64(raw[13:21]),
		Step:     raw[stepOff],
	}
	copy(t.Subject[:], raw[21:37])
	copy(t.Tip[:], raw[37:anchorLen])
	copy(t.Sig[:], raw[anchorLen:stepOff])
	copy(t.Link[:], raw[stepOff+1:])
	return t, nil
}

// DecodeString parses the base64 transport form.
// seclint:sanitizer
func DecodeString(s string) (*Token, error) {
	raw, err := base64.RawURLEncoding.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	return Decode(raw)
}

// expiresAt is the instant the token ages out under ttl: its anchor's
// issued-at plus ttl, the same for every step of the chain.
func (t *Token) expiresAt(ttl time.Duration) time.Time {
	return time.Unix(t.IssuedAt, 0).Add(ttl)
}

// hashN applies H n times to x.
func hashN(x [sha256.Size]byte, n int) [sha256.Size]byte {
	for ; n > 0; n-- {
		x = sha256.Sum256(x[:])
	}
	return x
}

// linked reports whether the token's link hashes to its tip in Step
// steps — the chain half of verification, the signature being the other.
func (t *Token) linked() bool {
	return hashN(t.Link, int(t.Step)) == t.Tip
}

// next is the chain's following step, computed from seed, or nil when
// seed does not grow t's chain (another chain's, under a colliding
// nonce): the next link must hash to t's. The caller ensures
// t.Step < ChainLen.
func (t *Token) next(seed *[sha256.Size]byte) *Token {
	n := *t
	n.Step++
	n.Link = hashN(*seed, ChainLen-int(n.Step))
	if sha256.Sum256(n.Link[:]) != t.Link {
		return nil
	}
	return &n
}
