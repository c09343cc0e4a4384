package authtoken

import (
	"crypto/ed25519"
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
	// ErrReplay: the nonce was already consumed. Tokens are single-use;
	// the legitimate holder received a successor with the response that
	// consumed this one.
	ErrReplay = errors.New("authtoken: nonce already used (replay)")
	// ErrUnknownEpoch: no public key for the token's key epoch — minted
	// before the retention window, or by a leadership this replica has
	// not heard from yet.
	ErrUnknownEpoch = errors.New("authtoken: unknown key epoch")
	// ErrBadSignature: structurally fine, cryptographically not.
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
// the epoch key set — skipped for a token it was told this process signed
// under that same key (remember) — a timestamp window, and a
// nonce-consume in the bounded replay cache. It holds no credential store
// and consults no policy base — which is exactly why seclint's gatecheck
// only lets calls to it count as an access gate because the *mint* side
// is provably behind a real policy decision.
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
// bounds the nonce cache (0 selects 65536). A NEGATIVE replayCapacity
// disables nonce consumption entirely — read-replica mode: a replica
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

// Verify checks raw at instant now and consumes its nonce. On success
// the decoded token returns; the caller owes the client a successor
// (tokens are single-use). The error classifies the failure — see the
// package errors — and is counted in Stats either way.
//
// Check order is deliberate: structure, epoch key, signature, time
// window, then replay. The nonce is consumed last, so a presentation
// that fails for any other reason does not burn the legitimate holder's
// token.
// seclint:sanitizer
func (v *Verifier) Verify(raw []byte, now time.Time) (*Token, error) {
	return v.verifyBound(raw, nil, now)
}

// VerifyBound is Verify plus identity binding: the token must be bound
// to exactly the serving fingerprint of subject s (ID + roles). A valid
// token presented under the wrong identity fails ErrSubjectMismatch
// without consuming the nonce.
// seclint:sanitizer
func (v *Verifier) VerifyBound(raw []byte, s *policy.Subject, now time.Time) (*Token, error) {
	fp := BindingFingerprint(s)
	return v.verifyBound(raw, &fp, now)
}

func (v *Verifier) verifyBound(raw []byte, bind *[16]byte, now time.Time) (*Token, error) {
	t, err := Decode(raw)
	if err != nil {
		v.malformed.Add(1)
		return nil, err
	}
	key, ok := v.keys.VerifyKey(t.Epoch)
	if !ok {
		v.unknownEpoch.Add(1)
		return nil, fmt.Errorf("%w: epoch %d", ErrUnknownEpoch, t.Epoch)
	}
	// Decode accepts exactly the canonical encoding, so raw is the signed
	// prefix followed by the signature. A token in the issued table was
	// signed here under this very key and needs no curve check.
	if v.replay != nil && v.replay.recognise(t.Nonce, key, raw) {
		v.recognised.Add(1)
	} else if !ed25519.Verify(key, raw[:signedLen], raw[signedLen:]) {
		v.badSig.Add(1)
		return nil, ErrBadSignature
	}
	issued := time.Unix(t.IssuedAt, 0)
	if now.After(issued.Add(v.ttl)) {
		v.expired.Add(1)
		return nil, fmt.Errorf("%w: issued %s, ttl %s", ErrExpired, issued.UTC().Format(time.RFC3339), v.ttl)
	}
	if issued.After(now.Add(v.skew)) {
		v.futureSkew.Add(1)
		return nil, fmt.Errorf("%w: issued %s", ErrFutureSkew, issued.UTC().Format(time.RFC3339))
	}
	if bind != nil && t.Subject != *bind {
		v.subjectMismatch.Add(1)
		return nil, ErrSubjectMismatch
	}
	if v.replay != nil {
		if !v.replay.consume(t.Nonce, v.forgetAt(t), now.Unix()) {
			v.replayed.Add(1)
			return nil, ErrReplay
		}
	}
	v.verified.Add(1)
	return t, nil
}

// forgetAt is the instant, unix seconds, from which the time window
// rejects t on its own, so nothing about it is worth remembering.
func (v *Verifier) forgetAt(t *Token) int64 {
	return t.IssuedAt + int64(v.ttl/time.Second) + int64(v.skew/time.Second) + 1
}

// remember records t as signed by this process under the private half of
// pub, so that presenting it back here skips ed25519.Verify. A verifier
// without a replay cache (read-replica mode) remembers nothing.
func (v *Verifier) remember(pub ed25519.PublicKey, t *Token, now time.Time) {
	if v.replay != nil {
		v.replay.remember(t.Nonce, pub, t.Encode(), v.forgetAt(t), now.Unix())
	}
}

// VerifierStats is the counter snapshot debugz publishes.
type VerifierStats struct {
	// Verified counts every accepted token; Recognised counts the
	// signature checks among all presentations that were answered from
	// the issued table instead of ed25519.Verify.
	Verified        uint64
	Recognised      uint64
	Expired         uint64
	FutureSkew      uint64
	Replayed        uint64
	BadSignature    uint64
	UnknownEpoch    uint64
	Malformed       uint64
	SubjectMismatch uint64
	// ReplayEntries is the live nonce count; ReplayEvictions counts
	// capacity evictions of live nonces (each one briefly re-opened a
	// replay window — a sustained nonzero rate means the cache is
	// undersized for the token population).
	ReplayEntries   int
	ReplayEvictions uint64
	// IssuedEntries is the number of tokens signed here and not yet
	// presented (or expired, or evicted).
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
