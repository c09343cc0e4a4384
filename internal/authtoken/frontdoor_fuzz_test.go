package authtoken

import (
	"bytes"
	"crypto/ed25519"
	"encoding/base64"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"webdbsec/internal/credential"
	"webdbsec/internal/policy"
)

// FuzzFrontDoor drives Authorize with arbitrary auth material — the token
// and wallet headers and form fields — and an arbitrary claimed identity,
// against a gate whose key signed one chain for ana/analyst. A "@" in
// either token value stands for the chain step the step argument picks
// (1..ChainLen; any other value leaves "@" alone), so the fuzzer starts
// from real steps and mutates around them.
//
// Property: Authorize never panics; it serves a request exactly when it
// presents a step of that chain and claims the identity the chain is bound
// to, or presents a wallet the verifier accepts for the claimed identity;
// a served request gets back the claimed identity; a refusal is 400 for
// malformed material (ErrMalformed) and 401 otherwise.
func FuzzFrontDoor(f *testing.F) {
	const ttl = time.Hour
	keys := oneKey{priv: ed25519.NewKeyFromSeed(bytes.Repeat([]byte{7}, ed25519.SeedSize))}
	keys.pub = keys.priv.Public().(ed25519.PublicKey)
	ca, err := credential.NewAuthority("ca")
	if err != nil {
		f.Fatal(err)
	}
	creds := credential.NewVerifier()
	creds.TrustAuthority(ca)
	owner := &policy.Subject{ID: "ana", Roles: []string{"analyst"}}
	m, err := NewMinter(keys, creds, permit{}, ttl)
	if err != nil {
		f.Fatal(err)
	}
	first, seed, _, err := m.mintBound(BindingFingerprint(owner), time.Now())
	if err != nil {
		f.Fatal(err)
	}
	chain := [][]byte{first.Encode()} // chain[k-1] is step k
	for t := first; t.Step < ChainLen; {
		t = t.next(seed)
		chain = append(chain, t.Encode())
	}
	wallet := func(holder string, by *credential.Authority) string {
		w := credential.NewWallet(holder)
		if err := w.Add(by.Issue("analyst", holder, nil)); err != nil {
			f.Fatal(err)
		}
		enc, err := EncodeWallet(w)
		if err != nil {
			f.Fatal(err)
		}
		return enc
	}
	rogue, err := credential.NewAuthority("ca")
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []struct {
		tokHeader, tokForm, walletHeader, walletForm, id, roles string
		step                                                    uint8
	}{
		{"", "", "", "", "ana", "analyst", 0},
		{"@", "", "", "", "ana", "analyst", 1},
		{"", "@", "", "", "ana", "analyst", 7},
		{"@", "", "", "", "ana", "analyst", ChainLen},
		{"@", "", "", "", "bob", "analyst", 3},
		{"@", "", "", "", "ana", "", 3},
		{"@x", "", "", "", "ana", "analyst", 2},
		{"!", "@", "", "", "ana", "analyst", 2},
		{"", "", wallet("ana", ca), "", "ana", "analyst", 0},
		{"", "", "", wallet("ana", ca), "ana", "", 0},
		{"", "", wallet("ana", ca), "", "bob", "analyst", 0},
		{"", "", wallet("ana", rogue), "", "ana", "analyst", 0},
		{"@", "", "e30", "", "ana", "analyst", 4},
		{"@", "", "!", "", "ana", "analyst", 4},
		{"", "", "e30", "", "ana", "analyst", 0},
	} {
		f.Add(seed.tokHeader, seed.tokForm, seed.walletHeader, seed.walletForm, seed.id, seed.roles, seed.step)
	}
	f.Fuzz(func(t *testing.T, tokHeader, tokForm, walletHeader, walletForm, id, roles string, step uint8) {
		if step >= 1 && step <= ChainLen {
			enc := base64.RawURLEncoding.EncodeToString(chain[step-1])
			tokHeader = strings.ReplaceAll(tokHeader, "@", enc)
			tokForm = strings.ReplaceAll(tokForm, "@", enc)
		}
		claimed := &policy.Subject{ID: id}
		if roles != "" {
			claimed.Roles = strings.Split(roles, ",")
		}
		form := url.Values{}
		if tokForm != "" {
			form.Set("token", tokForm)
		}
		if walletForm != "" {
			form.Set("wallet", walletForm)
		}
		r := httptest.NewRequest(http.MethodPost, "/", strings.NewReader(form.Encode()))
		r.Header.Set("Content-Type", "application/x-www-form-urlencoded")
		if tokHeader != "" {
			r.Header[TokenHeader] = []string{tokHeader}
		}
		if walletHeader != "" {
			r.Header[WalletHeader] = []string{walletHeader}
		}
		// The oracle reads the material as the door does: the header when
		// it is there, else the form field (as the form parser reads it).
		tokEnc, walletEnc := tokHeader, walletHeader
		if tokEnc == "" {
			tokEnc = form.Get("token")
		}
		if walletEnc == "" {
			walletEnc = form.Get("wallet")
		}
		malformed := false
		var raw []byte
		if tokEnc != "" {
			raw, err = base64.RawURLEncoding.DecodeString(tokEnc)
			malformed = err != nil
		}
		var w *credential.Wallet
		if walletEnc != "" {
			var decoded credential.Wallet
			wraw, err := base64.RawURLEncoding.DecodeString(walletEnc)
			if err == nil {
				err = json.Unmarshal(wraw, &decoded)
			}
			if err != nil {
				malformed = true
			} else {
				w = &decoded
			}
		}
		tokenOK := false
		for _, s := range chain {
			tokenOK = tokenOK || raw != nil && bytes.Equal(raw, s)
		}
		tokenOK = tokenOK && BindingFingerprint(claimed) == BindingFingerprint(owner)
		walletOK := w != nil && id != "" && w.Subject == id
		for i := 0; walletOK && i < len(w.Credentials); i++ {
			walletOK = w.Credentials[i] != nil && w.Credentials[i].Subject == id
		}
		walletOK = walletOK && len(creds.Valid(w)) == len(w.Credentials)

		g := &Gate{Verifier: NewVerifier(keys, ttl, 0, 16), Minter: m}
		rec := httptest.NewRecorder()
		got, status, err := g.Authorize(rec, r, claimed)
		switch {
		case err == nil:
			if malformed || !tokenOK && !walletOK {
				t.Fatalf("served %+v (token ok %v, wallet ok %v, malformed %v)", got, tokenOK, walletOK, malformed)
			}
			if got.ID != claimed.ID || strings.Join(got.Roles, ",") != strings.Join(claimed.Roles, ",") || got.Wallet != nil || status != http.StatusOK {
				t.Fatalf("served %+v with status %d, claimed %+v", got, status, claimed)
			}
			if rec.Header().Get(TokenHeader) == "" {
				t.Fatalf("served with no successor token")
			}
		case got != nil:
			t.Fatalf("refused (%v) and still returned %+v", err, got)
		case errors.Is(err, ErrMalformed) != (status == http.StatusBadRequest) || status != http.StatusBadRequest && status != http.StatusUnauthorized:
			t.Fatalf("refusal %v answered %d", err, status)
		case !malformed && (tokenOK || walletOK):
			t.Fatalf("refused %v (token ok %v, wallet ok %v)", err, tokenOK, walletOK)
		}
	})
}
