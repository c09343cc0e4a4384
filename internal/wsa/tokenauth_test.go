package wsa

import (
	"context"
	"crypto/ed25519"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"webdbsec/internal/authtoken"
	"webdbsec/internal/credential"
	"webdbsec/internal/policy"
	"webdbsec/internal/uddi"
	"webdbsec/internal/xmldoc"
)

// End-to-end token auth over the envelope surface: first call qualifies
// on the wallet and comes back token-armed, subsequent calls ride the
// fast path, and bad material is refused with a terminal fault.

type uddiMintGate struct{}

func (uddiMintGate) AllowMint(s *policy.Subject) bool { return s.ID != "" }

// testRing is a single-epoch in-test keyring (keymgmt.MintKeyring imports
// this package, so the real one is off-limits to internal tests).
type testRing struct {
	pub  ed25519.PublicKey
	priv ed25519.PrivateKey
}

func (k *testRing) SigningKey() (uint32, ed25519.PrivateKey) { return 1, k.priv }
func (k *testRing) VerifyKey(e uint32) (ed25519.PublicKey, bool) {
	if e == 1 {
		return k.pub, true
	}
	return nil, false
}

func newTokenServer(t *testing.T) (*httptest.Server, *RegistryServer, *credential.Authority) {
	t.Helper()
	pub, priv, err := ed25519.GenerateKey(nil)
	if err != nil {
		t.Fatalf("keygen: %v", err)
	}
	ring := &testRing{pub: pub, priv: priv}
	auth, err := credential.NewAuthority("registry-ca")
	if err != nil {
		t.Fatalf("authority: %v", err)
	}
	cv := credential.NewVerifier()
	cv.TrustAuthority(auth)
	gate, err := authtoken.NewGate(ring, cv, uddiMintGate{}, time.Minute)
	if err != nil {
		t.Fatalf("gate: %v", err)
	}
	rs := &RegistryServer{Registry: uddi.NewRegistry(nil), Auth: gate}
	ts := httptest.NewServer(rs)
	t.Cleanup(ts.Close)
	return ts, rs, auth
}

func TestClientTokenFastPathOverEnvelope(t *testing.T) {
	ts, rs, auth := newTokenServer(t)
	ctx := context.Background()

	w := credential.NewWallet("acme-pub")
	if err := w.Add(auth.Issue("publisher", "acme-pub", nil)); err != nil {
		t.Fatalf("wallet: %v", err)
	}
	c := &Client{Endpoint: ts.URL, Sender: "acme-pub", Auth: &TokenAuth{Wallet: w}}

	// First call: no token yet — wallet path, and the response arms us.
	if err := c.SaveBusiness(ctx, acmeEntity()); err != nil {
		t.Fatal(err)
	}
	if c.Auth.Token() == "" {
		t.Fatalf("no token armed after wallet-authenticated call")
	}
	first := c.Auth.Token()

	// Next calls: fast path, and the held token rolls every hop.
	for i := 0; i < 3; i++ {
		if _, err := c.FindBusiness(ctx, "acme"); err != nil {
			t.Fatal(err)
		}
	}
	if c.Auth.Token() == first {
		t.Fatalf("token did not roll across calls")
	}
	st := rs.Auth.Stats()
	if st.SlowPath != 1 || st.FastPath != 3 {
		t.Fatalf("stats = %+v, want 1 slow / 3 fast", st)
	}
	if st.FastPathHitRate != 0.75 {
		t.Fatalf("hit rate = %v, want 0.75", st.FastPathHitRate)
	}
}

// TestBareEnvelopeRefused: an envelope that presents no token and no
// wallet is refused, whoever it names as sender: it neither reads nor
// replaces the named publisher's entry.
func TestBareEnvelopeRefused(t *testing.T) {
	ts, rs, auth := newTokenServer(t)
	ctx := context.Background()
	w := credential.NewWallet("acme-pub")
	if err := w.Add(auth.Issue("publisher", "acme-pub", nil)); err != nil {
		t.Fatalf("wallet: %v", err)
	}
	owner := &Client{Endpoint: ts.URL, Sender: "acme-pub", Auth: &TokenAuth{Wallet: w}}
	if err := owner.SaveBusiness(ctx, acmeEntity()); err != nil {
		t.Fatal(err)
	}
	forged := acmeEntity()
	forged.Name = "forged"
	bare := &Client{Endpoint: ts.URL, Sender: "acme-pub"}
	if err := bare.SaveBusiness(ctx, forged); err == nil || !strings.Contains(err.Error(), authtoken.ErrNoCredential.Error()) {
		t.Fatalf("bare save_business: err = %v, want the no-credential refusal", err)
	}
	if _, err := bare.FindBusiness(ctx, "acme"); err == nil || !strings.Contains(err.Error(), authtoken.ErrNoCredential.Error()) {
		t.Fatalf("bare find_business: err = %v, want the no-credential refusal", err)
	}
	ents, err := rs.Registry.GetBusinessDetail(&policy.Subject{ID: "acme-pub"}, acmeEntity().BusinessKey)
	if err != nil || len(ents) != 1 || ents[0].Name != acmeEntity().Name {
		t.Fatalf("acme-pub's entry after the bare save: %+v, %v", ents, err)
	}
	if st := rs.Auth.Stats(); st.Rejected != 2 {
		t.Fatalf("stats = %+v, want 2 rejected", st)
	}
}

func TestBadWalletRefusedWithTerminalFault(t *testing.T) {
	ts, _, _ := newTokenServer(t)
	rogue, err := credential.NewAuthority("rogue")
	if err != nil {
		t.Fatalf("authority: %v", err)
	}
	w := credential.NewWallet("mallory")
	if err := w.Add(rogue.Issue("publisher", "mallory", nil)); err != nil {
		t.Fatalf("wallet: %v", err)
	}
	c := &Client{Endpoint: ts.URL, Sender: "mallory", Auth: &TokenAuth{Wallet: w}}
	err = c.SaveBusiness(context.Background(), acmeEntity())
	if err == nil || !strings.Contains(err.Error(), "credential") {
		t.Fatalf("err = %v, want wallet refusal", err)
	}
}

func TestStolenTokenRefusedForOtherSender(t *testing.T) {
	ts, rs, auth := newTokenServer(t)
	ctx := context.Background()
	w := credential.NewWallet("acme-pub")
	if err := w.Add(auth.Issue("publisher", "acme-pub", nil)); err != nil {
		t.Fatalf("wallet: %v", err)
	}
	victim := &Client{Endpoint: ts.URL, Sender: "acme-pub", Auth: &TokenAuth{Wallet: w}}
	if err := victim.SaveBusiness(ctx, acmeEntity()); err != nil {
		t.Fatal(err)
	}
	// A different sender presenting the victim's token, no wallet.
	thief := &Client{Endpoint: ts.URL, Sender: "mallory", Auth: &TokenAuth{}}
	thief.Auth.store(victim.Auth.Token())
	_, err := thief.FindBusiness(ctx, "acme")
	if err == nil || !strings.Contains(err.Error(), "different subject") {
		t.Fatalf("err = %v, want subject-binding refusal", err)
	}
	if st := rs.Auth.Stats(); st.Rejected != 1 || st.Verifier.SubjectMismatch != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// The victim's held token was NOT consumed by the failed theft.
	if _, err := victim.FindBusiness(ctx, "acme"); err != nil {
		t.Fatalf("victim after theft attempt: %v", err)
	}
}

// TestEnvelopeMaterialMatrix is the front door's oracle on the envelope
// surface: every operation × auth material cell answers the status the
// material calls for — only a valid token or a trusted wallet of the
// sender itself is served — and a refused cell leaves acme-pub's entry as
// it was. With authentication off, the asserted sender is served.
func TestEnvelopeMaterialMatrix(t *testing.T) {
	const sender = "acme-pub"
	renamed := acmeEntity()
	renamed.Name = "renamed"
	ops := []struct {
		name  string
		body  *xmldoc.Document
		write bool
	}{
		{"find_business", xmldoc.NewBuilder("req", "findBusiness").Attrib("name", "acme").Freeze(), false},
		{"find_service", xmldoc.NewBuilder("req", "findService").Attrib("name", "ship").Freeze(), false},
		{"get_businessDetail", xmldoc.NewBuilder("req", "getBusinessDetail").Begin("businessKey").Text("be-acme").End().Freeze(), false},
		{"save_business", renamed.ToXML(), true},
		{"delete_business", xmldoc.NewBuilder("req", "deleteBusiness").Attrib("businessKey", "be-acme").Freeze(), true},
	}
	now := time.Now()
	token := func(rs *RegistryServer, id string, at time.Time) string {
		tok, err := rs.Auth.Minter.Mint(&policy.Subject{ID: id}, at)
		if err != nil {
			t.Fatalf("mint %s: %v", id, err)
		}
		return tok.EncodeString()
	}
	wallet := func(ca *credential.Authority, holder string) string {
		w := credential.NewWallet(holder)
		if err := w.Add(ca.Issue("publisher", holder, nil)); err != nil {
			t.Fatal(err)
		}
		enc, err := authtoken.EncodeWallet(w)
		if err != nil {
			t.Fatal(err)
		}
		return enc
	}
	rogue, err := credential.NewAuthority("rogue")
	if err != nil {
		t.Fatal(err)
	}
	materials := []struct {
		name   string
		header func(rs *RegistryServer, ca *credential.Authority) (key, value string)
		want   int // the front door's status; 200 = served
	}{
		{"none", nil, http.StatusUnauthorized},
		{"malformed token", func(*RegistryServer, *credential.Authority) (string, string) { return authtoken.TokenHeader, "!!" }, http.StatusBadRequest},
		{"malformed wallet", func(*RegistryServer, *credential.Authority) (string, string) {
			return authtoken.WalletHeader, "e30" + "!"
		}, http.StatusBadRequest},
		{"expired token", func(rs *RegistryServer, _ *credential.Authority) (string, string) {
			return authtoken.TokenHeader, token(rs, sender, now.Add(-2*time.Minute))
		}, http.StatusUnauthorized},
		{"another subject's token", func(rs *RegistryServer, _ *credential.Authority) (string, string) {
			return authtoken.TokenHeader, token(rs, "other-pub", now)
		}, http.StatusUnauthorized},
		{"another subject's wallet", func(_ *RegistryServer, ca *credential.Authority) (string, string) {
			return authtoken.WalletHeader, wallet(ca, "other-pub")
		}, http.StatusUnauthorized},
		{"wallet from an untrusted issuer", func(*RegistryServer, *credential.Authority) (string, string) {
			return authtoken.WalletHeader, wallet(rogue, sender)
		}, http.StatusUnauthorized},
		{"valid token", func(rs *RegistryServer, _ *credential.Authority) (string, string) {
			return authtoken.TokenHeader, token(rs, sender, now)
		}, http.StatusOK},
		{"valid wallet", func(_ *RegistryServer, ca *credential.Authority) (string, string) {
			return authtoken.WalletHeader, wallet(ca, sender)
		}, http.StatusOK},
	}
	entry := func(rs *RegistryServer) string {
		ents, err := rs.Registry.GetBusinessDetail(&policy.Subject{ID: sender}, "be-acme")
		if err != nil || len(ents) != 1 {
			return "absent"
		}
		return ents[0].Name
	}
	for _, authOn := range []bool{true, false} {
		for _, m := range materials {
			if !authOn && m.name != "none" {
				continue
			}
			for _, op := range ops {
				cell := fmt.Sprintf("auth %v: %s with %s", authOn, op.name, m.name)
				_, rs, ca := newTokenServer(t)
				if !authOn {
					rs.Auth = nil
				}
				if err := rs.Registry.SaveBusiness(sender, acmeEntity()); err != nil {
					t.Fatal(err)
				}
				before := entry(rs)
				req := httptest.NewRequest(http.MethodPost, "/", strings.NewReader((&Envelope{Operation: op.name, Sender: sender, Body: op.body}).Encode()))
				req.Header.Set("Content-Type", "application/xml")
				if m.header != nil {
					k, v := m.header(rs, ca)
					req.Header.Set(k, v)
				}
				rec := httptest.NewRecorder()
				rs.ServeHTTP(rec, req)
				want := m.want
				if !authOn {
					want = http.StatusOK
				}
				if rec.Code != want {
					t.Errorf("%s = %d %q, want %d", cell, rec.Code, rec.Body.String(), want)
				}
				if changed := entry(rs) != before; changed != (want == http.StatusOK && op.write) {
					t.Errorf("%s: acme-pub's entry changed = %v (%q -> %q)", cell, changed, before, entry(rs))
				}
			}
		}
	}
}
