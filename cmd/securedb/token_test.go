package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"webdbsec/internal/authtoken"
	"webdbsec/internal/credential"
)

// End-to-end over the real HTTP surface: mint at /token (gated on the
// System R catalog), query on the fast path, and watch the token roll.

func newTokenTestServer(t *testing.T) (*httptest.Server, *authtoken.Service) {
	t.Helper()
	s, err := newServer(config{people: 25, tokenTTL: time.Minute})
	if err != nil {
		t.Fatalf("newServer: %v", err)
	}
	t.Cleanup(s.close)
	ts := httptest.NewServer(s.mux(false))
	t.Cleanup(ts.Close)
	return ts, s.leaderAuth
}

func mintToken(t *testing.T, ts *httptest.Server, subject, roles string) (string, int) {
	t.Helper()
	resp, err := http.PostForm(ts.URL+"/token", url.Values{"subject": {subject}, "roles": {roles}})
	if err != nil {
		t.Fatalf("mint: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", resp.StatusCode
	}
	var mr authtoken.MintResponse
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		t.Fatalf("mint body: %v", err)
	}
	return mr.Token, resp.StatusCode
}

func queryWithToken(t *testing.T, ts *httptest.Server, subject, roles, token string) (*http.Response, string) {
	t.Helper()
	form := url.Values{"subject": {subject}, "roles": {roles}, "sql": {"SELECT age, zip FROM patients"}}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/query", strings.NewReader(form.Encode()))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	if token != "" {
		req.Header.Set(authtoken.TokenHeader, token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return resp, resp.Header.Get(authtoken.TokenHeader)
}

func TestMintThenQueryFastPath(t *testing.T) {
	ts, svc := newTokenTestServer(t)
	tok, status := mintToken(t, ts, "ana", "analyst")
	if status != http.StatusOK || tok == "" {
		t.Fatalf("mint: status=%d token=%q", status, tok)
	}
	// Three hops on the fast path; each response rolls the token.
	for i := 0; i < 3; i++ {
		resp, next := queryWithToken(t, ts, "ana", "analyst", tok)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d: status %d", i, resp.StatusCode)
		}
		if next == "" || next == tok {
			t.Fatalf("query %d: token did not roll (next=%q)", i, next)
		}
		tok = next
	}
	// One signature: the explicit mint anchors a chain, and the three
	// successors are its next steps.
	st := svc.Gate.Stats()
	if st.FastPath != 3 || st.Advanced != 3 || st.Mint.Minted != 1 {
		t.Fatalf("stats = %+v, want 3 fast / 3 advanced / 1 minted", st)
	}
}

func TestMintRefusedWithoutGrant(t *testing.T) {
	ts, _ := newTokenTestServer(t)
	// "mallory" holds no Select grant on patients: the MintGate (the same
	// grant catalog queries consult) refuses the token outright.
	if _, status := mintToken(t, ts, "mallory", "analyst"); status != http.StatusForbidden {
		t.Fatalf("ungranted mint: status = %d, want 403", status)
	}
}

func TestStaleTokenFallsBackToLegacyRefusal(t *testing.T) {
	ts, svc := newTokenTestServer(t)
	tok, _ := mintToken(t, ts, "ana", "analyst")
	// Replay: present the same token twice; the second hop is consumed.
	if resp, _ := queryWithToken(t, ts, "ana", "analyst", tok); resp.StatusCode != http.StatusOK {
		t.Fatalf("first use: status %d", resp.StatusCode)
	}
	resp, _ := queryWithToken(t, ts, "ana", "analyst", tok)
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("replayed token: status = %d, want 401", resp.StatusCode)
	}
	if st := svc.Gate.Stats(); st.Verifier.Replayed != 1 || st.Rejected != 1 {
		t.Fatalf("stats = %+v, want 1 replayed / 1 rejected", st)
	}
}

func TestLegacyFormStillServed(t *testing.T) {
	ts, svc := newTokenTestServer(t)
	resp, _ := queryWithToken(t, ts, "ana", "analyst", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("legacy query: status %d", resp.StatusCode)
	}
	if st := svc.Gate.Stats(); st.Legacy != 1 {
		t.Fatalf("stats = %+v, want 1 legacy", st)
	}
}

// TestTokenPathShape is E22's shape as counts over the real handler: every
// request with a distinct wallet is one full evaluation (a slow-path
// request and a credential memo miss); a token request adds none, and the
// rolling chain signs once per authtoken.ChainLen requests; every spent
// token presented again is refused.
func TestTokenPathShape(t *testing.T) {
	s, err := newServer(config{people: 25, tokenTTL: time.Minute})
	if err != nil {
		t.Fatalf("newServer: %v", err)
	}
	t.Cleanup(s.close)
	ca, err := credential.NewAuthority("test-ca")
	if err != nil {
		t.Fatal(err)
	}
	s.creds.TrustAuthority(ca)
	ts := httptest.NewServer(s.mux(false))
	t.Cleanup(ts.Close)
	gate := s.leaderAuth.Gate

	const n = 100
	for i := 0; i < n; i++ {
		w := credential.NewWallet("ana")
		if err := w.Add(ca.Issue("analyst", "ana", map[string]string{"serial": strconv.Itoa(i)})); err != nil {
			t.Fatal(err)
		}
		enc, err := authtoken.EncodeWallet(w)
		if err != nil {
			t.Fatal(err)
		}
		form := url.Values{"subject": {"ana"}, "roles": {"analyst"}, "wallet": {enc}, "sql": {"SELECT age FROM patients"}}
		resp, err := http.PostForm(ts.URL+"/query", form)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("wallet query %d: status %d", i, resp.StatusCode)
		}
	}
	if st := gate.Stats(); st.SlowPath != n || st.FastPath != 0 {
		t.Fatalf("after %d wallet requests: %d slow / %d fast, want %d / 0", n, st.SlowPath, st.FastPath, n)
	}
	if hits, misses := s.creds.MemoStats(); hits != 0 || misses != n {
		t.Fatalf("credential memo: %d hits / %d misses, want 0 / %d", hits, misses, n)
	}

	mintedBefore := gate.Stats().Mint.Minted
	tok, status := mintToken(t, ts, "ana", "analyst")
	if status != http.StatusOK {
		t.Fatalf("mint: status %d", status)
	}
	spent := make([]string, 0, n)
	for i := 0; i < n; i++ {
		resp, next := queryWithToken(t, ts, "ana", "analyst", tok)
		if resp.StatusCode != http.StatusOK || next == "" {
			t.Fatalf("token query %d: status %d, successor %q", i, resp.StatusCode, next)
		}
		spent, tok = append(spent, tok), next
	}
	st := gate.Stats()
	if st.SlowPath != n || st.FastPath != n {
		t.Fatalf("after %d token requests: %d slow / %d fast, want %d / %d", n, st.SlowPath, st.FastPath, n, n)
	}
	if minted, most := st.Mint.Minted-mintedBefore, uint64((n+authtoken.ChainLen-1)/authtoken.ChainLen+1); minted > most {
		t.Fatalf("%d token requests signed %d chains, want at most %d", n, minted, most)
	}

	replayedBefore := st.Verifier.Replayed
	for i, old := range spent {
		if resp, _ := queryWithToken(t, ts, "ana", "analyst", old); resp.StatusCode != http.StatusUnauthorized {
			t.Fatalf("spent token %d presented again: status %d, want 401", i, resp.StatusCode)
		}
	}
	if replayed := gate.Stats().Verifier.Replayed - replayedBefore; replayed != n {
		t.Fatalf("replay counter rose by %d, want %d", replayed, n)
	}
}
