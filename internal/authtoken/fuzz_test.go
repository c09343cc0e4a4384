package authtoken_test

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"math/rand"
	"testing"
	"time"

	"webdbsec/internal/authtoken"
	"webdbsec/internal/keymgmt"
	"webdbsec/internal/policy"
)

// verdictClasses are the sentinels a verification can answer with; class
// names the one err carries ("ok" for nil).
var verdictClasses = []error{
	authtoken.ErrMalformed, authtoken.ErrUnknownEpoch, authtoken.ErrBadSignature, authtoken.ErrExpired,
	authtoken.ErrFutureSkew, authtoken.ErrSubjectMismatch, authtoken.ErrReplay,
}

func class(err error) string {
	if err == nil {
		return "ok"
	}
	for _, c := range verdictClasses {
		if errors.Is(err, c) {
			return c.Error()
		}
	}
	return "unclassified: " + err.Error()
}

// differ is the differential harness: a Gate whose verifier remembers
// what the gate signs, beside a verify-only Verifier over the same key
// set that is never told anything and so checks every signature with
// ed25519.Verify. Both are shown exactly the same presentations in the
// same order, so their replay state agrees and every verdict must.
type differ struct {
	gate *authtoken.Gate
	ref  *authtoken.Verifier
	subj *policy.Subject
	now  time.Time
	// handedOut counts the steps the gate has handed out so far: every
	// one is presented back exactly once, so each must be recognised.
	handedOut int
}

func newDiffer(tb testing.TB) *differ {
	tb.Helper()
	ring, err := keymgmt.NewMintKeyring(1)
	if err != nil {
		tb.Fatalf("keyring: %v", err)
	}
	m, err := authtoken.NewMinter(ring, nil, fuzzGate{}, time.Minute)
	if err != nil {
		tb.Fatalf("minter: %v", err)
	}
	return &differ{
		gate: &authtoken.Gate{Verifier: authtoken.NewVerifier(ring, time.Minute, 0, 1024), Minter: m},
		ref:  authtoken.NewVerifier(ring, time.Minute, 0, 1024),
		subj: &policy.Subject{ID: "fuzz", Roles: []string{"r"}},
		now:  time.Now(),
	}
}

// present shows raw to both sides and returns the shared verdict class.
func (d *differ) present(tb testing.TB, raw []byte) string {
	tb.Helper()
	_, gerr := d.gate.Verifier.VerifyBound(raw, d.subj, d.now)
	_, rerr := d.ref.VerifyBound(raw, d.subj, d.now)
	if class(gerr) != class(rerr) {
		tb.Fatalf("verdicts differ: remembering verifier %q, verify-only %q", class(gerr), class(rerr))
	}
	return class(gerr)
}

// issue returns a genuine token the gate has handed out and remembers:
// step hops of a chain the gate signed, reached by rolling a freshly
// minted token hops times, every presentation shown to both sides.
func (d *differ) issue(tb testing.TB, hops int) []byte {
	tb.Helper()
	first, err := d.gate.Minter.Mint(d.subj, d.now)
	if err != nil {
		tb.Fatalf("mint: %v", err)
	}
	raw := first.Encode()
	for i := 0; i < hops; i++ {
		res, err := d.gate.Authenticate(d.subj, raw, d.now)
		if err != nil {
			tb.Fatalf("roll %d: %v", i, err)
		}
		if _, err := d.ref.VerifyBound(raw, d.subj, d.now); err != nil {
			tb.Fatalf("reference on rolled token %d: %v", i, err)
		}
		raw = res.Token.Encode()
	}
	d.handedOut += hops
	return raw
}

// fieldBounds are the wire layout's field boundaries (see the package
// comment): version, epoch, issued-at, nonce, subject, tip, signature,
// step, link.
var fieldBounds = []int{0, 1, 5, 13, 21, 37, 69, 133, 134, authtoken.TokenLen}

// check drives one input through the harness: input itself as a token,
// then a remembered genuine token altered in one byte and in one whole
// field as input dictates — none of which may be accepted by either side
// — and last the genuine token, which both must accept and the
// remembering side must have recognised: no miss knocked its entry out.
// An earlier step of the genuine token's chain, which anyone holding it
// can compute, must then be refused by both as spent.
func (d *differ) check(tb testing.TB, input []byte) {
	tb.Helper()
	d.present(tb, input)

	at := func(i int) byte {
		if len(input) == 0 {
			return 0
		}
		return input[i%len(input)]
	}
	genuine := d.issue(tb, 1+int(at(4))%3)
	oneByte := bytes.Clone(genuine)
	oneByte[int(at(0))%len(oneByte)] ^= at(1) | 1
	field := int(at(2)) % (len(fieldBounds) - 1)
	oneField := bytes.Clone(genuine)
	for i := fieldBounds[field]; i < fieldBounds[field+1]; i++ {
		oneField[i] = at(3 + i)
	}
	for _, mutated := range [][]byte{oneByte, oneField} {
		if bytes.Equal(mutated, genuine) {
			continue
		}
		if got := d.present(tb, mutated); got == "ok" {
			tb.Fatalf("altered token accepted:\n genuine %x\n altered %x", genuine, mutated)
		}
	}
	before := d.gate.Verifier.Stats().Recognised
	if got := d.present(tb, genuine); got != "ok" {
		tb.Fatalf("genuine token after the altered ones: %s", got)
	}
	if d.gate.Verifier.Stats().Recognised != before+1 {
		tb.Fatalf("genuine token was not recognised: an altered presentation dropped its entry")
	}
	if got := d.present(tb, genuine); got != authtoken.ErrReplay.Error() {
		tb.Fatalf("genuine token presented again: %s, want replay", got)
	}
	if tok, _ := authtoken.Decode(genuine); tok.Step > 1 {
		tok.Step--
		tok.Link = sha256.Sum256(tok.Link[:])
		if got := d.present(tb, tok.Encode()); got != authtoken.ErrReplay.Error() {
			tb.Fatalf("earlier step of a spent chain: %s, want replay", got)
		}
	}
}

// FuzzTokenDecode drives arbitrary bytes through the binary token codec
// and, when they decode, through a live verifier. Invariants: Decode
// never panics, anything it accepts re-encodes to the identical bytes
// (the signature covers the canonical encoding, so a non-canonical
// decode would be a forgery vector), the verifier classifies every
// input without panicking, and a verifier that recognises what its gate
// signed answers every presentation exactly as one that verifies every
// signature (differ.check).
func FuzzTokenDecode(f *testing.F) {
	d := newDiffer(f)
	tok, err := d.gate.Minter.Mint(d.subj, d.now)
	if err != nil {
		f.Fatalf("mint: %v", err)
	}
	valid := tok.Encode()

	f.Add(valid)
	f.Add(valid[:authtoken.TokenLen-1])
	f.Add(valid[:69]) // anchor only
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add(bytes.Repeat([]byte{0xff}, authtoken.TokenLen))
	f.Add(append(append([]byte{}, valid...), 0xaa))

	f.Fuzz(func(t *testing.T, raw []byte) {
		dec, err := authtoken.Decode(raw)
		if err != nil {
			if dec != nil {
				t.Fatalf("error with non-nil token")
			}
		} else {
			if !bytes.Equal(dec.Encode(), raw) {
				t.Fatalf("decode/encode not canonical")
			}
			if _, err := authtoken.DecodeString(dec.EncodeString()); err != nil {
				t.Fatalf("string round trip: %v", err)
			}
		}
		d.check(t, raw)
	})
}

// TestRecognisedEqualsVerified is the same differential without the fuzz
// engine, so every plain test run covers a few thousand random tokens
// and alterations of every field.
func TestRecognisedEqualsVerified(t *testing.T) {
	d := newDiffer(t)
	rng := rand.New(rand.NewSource(23))
	rounds := 1500
	if testing.Short() {
		rounds = 200
	}
	for n := 0; n < rounds; n++ {
		input := make([]byte, []int{0, 1, 4, 69, authtoken.TokenLen, authtoken.TokenLen + 3}[rng.Intn(6)])
		rng.Read(input)
		if len(input) > 0 && rng.Intn(2) == 0 {
			input[0] = authtoken.Version // decodes when the length allows
		}
		d.check(t, input)
	}
	st := d.gate.Verifier.Stats()
	if st.Recognised != uint64(d.handedOut) || st.IssuedEntries != 0 {
		t.Fatalf("recognised %d of %d handed-out steps, %d entries left", st.Recognised, d.handedOut, st.IssuedEntries)
	}
	if ref := d.ref.Stats(); ref.Recognised != 0 || ref.IssuedEntries != 0 || ref.Verified != st.Verified {
		t.Fatalf("verify-only side: %+v, remembering side verified %d", ref, st.Verified)
	}
}

type fuzzGate struct{}

func (fuzzGate) AllowMint(*policy.Subject) bool { return true }
