package authtoken

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"webdbsec/internal/policy"
)

// Verification verdicts. All are terminal for the presented token; only
// ErrExpired and ErrUnknownEpoch are worth a client-side re-mint (the
// token aged out or rotation outran it) — the rest indicate a hostile or
// corrupted presentation.
var (
	// ErrExpired: issued-at + TTL is in the past.
	ErrExpired = errors.New("authtoken: token expired")
	// ErrFutureSkew: issued-at is further in the future than the
	// configured clock-skew tolerance — no honest clock pair produces it.
	ErrFutureSkew = errors.New("authtoken: token issued in the future beyond skew tolerance")
	// ErrReplay: the step was already consumed, or a later step of its
	// chain was. Tokens are single-use; the legitimate holder received a
	// successor with the response that consumed this one.
	ErrReplay = errors.New("authtoken: nonce already used (replay)")
	// ErrUnknownEpoch: no public key for the token's key epoch — minted
	// before the retention window, or by a leadership this replica has
	// not heard from yet.
	ErrUnknownEpoch = errors.New("authtoken: unknown key epoch")
	// ErrBadSignature: structurally fine, cryptographically not — the
	// anchor's signature fails, or the link does not hash to the tip.
	ErrBadSignature = errors.New("authtoken: bad signature")
	// ErrSubjectMismatch: the token is valid but bound to a different
	// subject fingerprint than the one presenting it.
	ErrSubjectMismatch = errors.New("authtoken: token bound to a different subject")
)

// VerifyKeys resolves a key epoch to its Ed25519 public key. Implemented
// by keymgmt.MintKeyring (the minting node verifies its own epochs) and
// keymgmt.PublicKeySet (followers verify from the replicated set).
type VerifyKeys interface {
	VerifyKey(epoch uint32) (ed25519.PublicKey, bool)
}

// Verifier checks tokens statelessly: one signature verification against
// the epoch key set and one hash chain walk — both skipped for the step
// it was told this process handed out under that same key (remember) — a
// timestamp window, and a step-consume in the bounded replay cache. It
// holds no credential store and consults no policy base — which is
// exactly why seclint's gatecheck only lets calls to it count as an
// access gate because the *mint* side is provably behind a real policy
// decision.
type Verifier struct {
	keys   VerifyKeys
	ttl    time.Duration
	skew   time.Duration
	replay *replayCache

	verified        atomic.Uint64
	recognised      atomic.Uint64
	expired         atomic.Uint64
	futureSkew      atomic.Uint64
	replayed        atomic.Uint64
	badSig          atomic.Uint64
	unknownEpoch    atomic.Uint64
	malformed       atomic.Uint64
	subjectMismatch atomic.Uint64
}

// DefaultSkew is the clock-skew tolerance used when none is given: wide
// enough for real NTP drift between cluster members, narrow enough that
// a pre-dated token is caught.
const DefaultSkew = 30 * time.Second

// NewVerifier builds a verifier over the key set. ttl bounds token
// lifetime from issued-at; skew <= 0 selects DefaultSkew; replayCapacity
// bounds the chain table (0 selects 65536). A NEGATIVE replayCapacity
// disables step consumption entirely — read-replica mode: a replica
// cannot sign successors, so tokens must stay presentable there across
// their TTL; single-use enforcement lives where minting does (the
// leader), and the TTL plus the signature bound a replica's exposure.
func NewVerifier(keys VerifyKeys, ttl, skew time.Duration, replayCapacity int) *Verifier {
	if skew <= 0 {
		skew = DefaultSkew
	}
	if replayCapacity < 0 {
		return &Verifier{keys: keys, ttl: ttl, skew: skew}
	}
	if replayCapacity == 0 {
		replayCapacity = 65536
	}
	return &Verifier{keys: keys, ttl: ttl, skew: skew, replay: newReplayCache(replayCapacity)}
}

// TTL returns the configured token lifetime.
func (v *Verifier) TTL() time.Duration { return v.ttl }

// Verify checks raw at instant now and consumes its step. On success
// the decoded token returns; the caller owes the client a successor
// (tokens are single-use). The error classifies the failure — see the
// package errors — and is counted in Stats either way.
//
// Check order is deliberate: structure, epoch key, signature and chain,
// time window, then replay. The step is consumed last, so a presentation
// that fails for any other reason does not burn the legitimate holder's
// token.
// seclint:sanitizer
func (v *Verifier) Verify(raw []byte, now time.Time) (*Token, error) {
	t, _, err := v.verifyBound(raw, nil, now)
	return t, err
}

// VerifyBound is Verify plus identity binding: the token must be bound
// to exactly the serving fingerprint of subject s (ID + roles). A valid
// token presented under the wrong identity fails ErrSubjectMismatch
// without consuming the step.
// seclint:sanitizer
func (v *Verifier) VerifyBound(raw []byte, s *policy.Subject, now time.Time) (*Token, error) {
	fp := BindingFingerprint(s)
	t, _, err := v.verifyBound(raw, &fp, now)
	return t, err
}

// chainRef is what a verified presentation lets the gate do without a
// signature: advance the chain, when this verifier holds its seed, and
// remember the next step under the key that checked the anchor.
type chainRef struct {
	key  ed25519.PublicKey
	seed *[sha256.Size]byte
}

// verifyBound is VerifyBound over an optional binding. The chainRef is
// nil unless the token verified and its chain's seed is held here.
func (v *Verifier) verifyBound(raw []byte, bind *[16]byte, now time.Time) (*Token, *chainRef, error) {
	t, err := Decode(raw)
	if err != nil {
		v.malformed.Add(1)
		return nil, nil, err
	}
	key, ok := v.keys.VerifyKey(t.Epoch)
	if !ok {
		v.unknownEpoch.Add(1)
		return nil, nil, fmt.Errorf("%w: epoch %d", ErrUnknownEpoch, t.Epoch)
	}
	// Decode accepts exactly the canonical encoding, so raw is the anchor,
	// its signature, the step and the link. A step in the issued table was
	// handed out here, its anchor signed under this very key and its link
	// computed from the seed, and needs neither check.
	if v.replay != nil && v.replay.recognise(t.Nonce, key, raw) {
		v.recognised.Add(1)
	} else if !ed25519.Verify(key, raw[:anchorLen], raw[anchorLen:stepOff]) {
		v.badSig.Add(1)
		return nil, nil, ErrBadSignature
	} else if !t.linked() {
		v.badSig.Add(1)
		return nil, nil, fmt.Errorf("%w: link does not hash to the chain tip", ErrBadSignature)
	}
	issued := time.Unix(t.IssuedAt, 0)
	if now.After(issued.Add(v.ttl)) {
		v.expired.Add(1)
		return nil, nil, fmt.Errorf("%w: issued %s, ttl %s", ErrExpired, issued.UTC().Format(time.RFC3339), v.ttl)
	}
	if issued.After(now.Add(v.skew)) {
		v.futureSkew.Add(1)
		return nil, nil, fmt.Errorf("%w: issued %s", ErrFutureSkew, issued.UTC().Format(time.RFC3339))
	}
	if bind != nil && t.Subject != *bind {
		v.subjectMismatch.Add(1)
		return nil, nil, ErrSubjectMismatch
	}
	var ref *chainRef
	if v.replay != nil {
		ok, seed := v.replay.consume(t.Nonce, t.Step, v.forgetAt(t), now.Unix())
		if !ok {
			v.replayed.Add(1)
			return nil, nil, ErrReplay
		}
		if seed != nil {
			ref = &chainRef{key: key, seed: seed}
		}
	}
	v.verified.Add(1)
	return t, ref, nil
}

// forgetAt is the instant, unix seconds, from which the time window
// rejects every step of t's chain on its own, so nothing about it is
// worth remembering.
func (v *Verifier) forgetAt(t *Token) int64 {
	return t.IssuedAt + int64(v.ttl/time.Second) + int64(v.skew/time.Second) + 1
}

// remember records t, grown from seed, as handed out by this process, its
// anchor signed under the private half of pub, so that presenting it back
// here skips ed25519.Verify and the chain walk, and its successor can be
// the chain's next step. A verifier without a replay cache (read-replica
// mode) remembers nothing.
func (v *Verifier) remember(pub ed25519.PublicKey, t *Token, seed *[sha256.Size]byte, now time.Time) {
	if v.replay != nil {
		v.replay.remember(t.Nonce, seed, pub, t.Encode(), v.forgetAt(t), now.Unix())
	}
}

// VerifierStats is the counter snapshot debugz publishes.
type VerifierStats struct {
	// Verified counts every accepted token; Recognised counts the
	// presentations whose signature and chain checks were answered from
	// the issued table instead of ed25519.Verify and the hash walk.
	Verified        uint64
	Recognised      uint64
	Expired         uint64
	FutureSkew      uint64
	Replayed        uint64
	BadSignature    uint64
	UnknownEpoch    uint64
	Malformed       uint64
	SubjectMismatch uint64
	// ReplayEntries is the live chain count; ReplayEvictions counts
	// capacity evictions of live chains (each one briefly re-opened a
	// replay window — a sustained nonzero rate means the cache is
	// undersized for the chain population).
	ReplayEntries   int
	ReplayEvictions uint64
	// IssuedEntries is the number of steps handed out here and not yet
	// consumed (or expired, or evicted).
	IssuedEntries int
}

// Stats snapshots the verifier's counters.
func (v *Verifier) Stats() VerifierStats {
	var entries, issued int
	var evictions uint64
	if v.replay != nil {
		entries, issued, evictions = v.replay.stats()
	}
	return VerifierStats{
		Verified:        v.verified.Load(),
		Recognised:      v.recognised.Load(),
		Expired:         v.expired.Load(),
		FutureSkew:      v.futureSkew.Load(),
		Replayed:        v.replayed.Load(),
		BadSignature:    v.badSig.Load(),
		UnknownEpoch:    v.unknownEpoch.Load(),
		Malformed:       v.malformed.Load(),
		SubjectMismatch: v.subjectMismatch.Load(),
		ReplayEntries:   entries,
		ReplayEvictions: evictions,
		IssuedEntries:   issued,
	}
}

// BindingFingerprint computes the 16-byte serving-identity fingerprint a
// token binds: policy.Subject.Fingerprint over ID and roles with a nil
// wallet. The wallet deliberately stays out: it qualifies the subject at
// mint time and is fully evaluated there, while every decision made
// after authentication — row policies, privacy constraints, the decision
// caches — sees exactly this wallet-less serving identity. Binding the
// same fingerprint means cached decisions key identically on both the
// token and wallet paths.
func BindingFingerprint(s *policy.Subject) [16]byte {
	serving := policy.Subject{ID: s.ID, Roles: s.Roles}
	var fp [16]byte
	raw, err := hex.DecodeString(serving.Fingerprint())
	if err != nil || len(raw) != len(fp) {
		// Fingerprint returns its own hex; this is unreachable short of
		// memory corruption, but a zero binding must never verify.
		return fp
	}
	copy(fp[:], raw)
	return fp
}
