package authtoken

import (
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"webdbsec/internal/credential"
	"webdbsec/internal/policy"
)

// HTTP binding of the fast path, shared by securedb, uddiserver and the
// benchmark driver so all surfaces speak one protocol:
//
//	request   X-Auth-Token header (or form "token"): base64url token
//	          X-Auth-Wallet header (or form "wallet"): base64url JSON wallet
//	response  X-Auth-Token: the successor (or freshly minted) token
//	          X-Auth-Expires: its expiry, unix seconds
//
// The identity the request claims is the binding's own: securedb's
// "subject" and "roles" form fields, an envelope's sender and roles.
//
// The response headers are what makes refresh transparent: every
// authenticated response re-arms the client with the token to present
// next, so rotation and single-use consumption never surface as errors
// on a well-behaved client.

// Header names.
const (
	// TokenHeader carries the token, request and response.
	TokenHeader = "X-Auth-Token"
	// WalletHeader carries the base64url JSON wallet.
	WalletHeader = "X-Auth-Wallet"
	// ExpiresHeader carries the response token's expiry, unix seconds.
	ExpiresHeader = "X-Auth-Expires"
)

// material reads one piece of auth material: the header first, then the
// form field.
func material(r *http.Request, header, field string) string {
	if enc := r.Header.Get(header); enc != "" {
		return enc
	}
	return r.FormValue(field)
}

// presented decodes the request's auth material: the raw token, nil when
// absent, and the subject to authenticate — claimed, or a copy of it
// carrying the presented wallet, which is only decoded here; verifying it
// is the minter's job.
func presented(r *http.Request, claimed *policy.Subject) (*policy.Subject, []byte, error) {
	s := claimed
	if enc := material(r, WalletHeader, "wallet"); enc != "" {
		w, err := decodeWallet(enc)
		if err != nil {
			return nil, nil, err
		}
		s = &policy.Subject{ID: claimed.ID, Roles: claimed.Roles, Wallet: w}
	}
	var raw []byte
	if enc := material(r, TokenHeader, "token"); enc != "" {
		var err error
		if raw, err = base64.RawURLEncoding.DecodeString(enc); err != nil {
			return nil, nil, fmt.Errorf("%w: token encoding: %v", ErrMalformed, err)
		}
	}
	return s, raw, nil
}

// Authorize is the front door: it establishes who is asking. claimed is
// the identity the request states, without a wallet; the token or wallet
// the request presents must prove it. On success the response is armed
// with the token to present next, and claimed returns as the serving
// subject: below the door, decisions and caches key on the identity
// alone, whichever path proved it. On failure the status is the HTTP
// refusal, which each binding renders in its own format: 400 for
// malformed material (ErrMalformed), 401 for everything else, no material
// at all (ErrNoCredential) included.
//
// On a nil gate — authentication off — claimed is served as it asserts.
func (g *Gate) Authorize(w http.ResponseWriter, r *http.Request, claimed *policy.Subject) (*policy.Subject, int, error) {
	if g == nil {
		return claimed, http.StatusOK, nil
	}
	s, raw, err := presented(r, claimed)
	if err == nil {
		var res *AuthResult
		if res, err = g.Authenticate(s, raw, time.Now()); err == nil {
			if res.Token != nil {
				w.Header().Set(TokenHeader, res.Token.EncodeString())
				w.Header().Set(ExpiresHeader, strconv.FormatInt(res.ExpiresAt.Unix(), 10))
			}
			return claimed, http.StatusOK, nil
		}
	}
	if errors.Is(err, ErrMalformed) {
		return nil, http.StatusBadRequest, err
	}
	return nil, http.StatusUnauthorized, err
}

// MintResponse is the mint endpoint's JSON body.
type MintResponse struct {
	// Token is the base64url token to present in TokenHeader.
	Token string `json:"token"`
	// ExpiresUnix is its expiry (issued-at + TTL), unix seconds.
	ExpiresUnix int64 `json:"expires_unix"`
	// Subject is the bound serving fingerprint, hex — the PR 2 decision
	// cache key for this identity.
	Subject string `json:"subject"`
}

// MintHandler serves POST /token: the explicit slow path. The subject
// presents identity, roles and its full wallet; a complete credential
// evaluation plus the MintGate policy decision stand between the request
// and the signature.
func (g *Gate) MintHandler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		claimed := &policy.Subject{ID: r.FormValue("subject")}
		if roles := r.FormValue("roles"); roles != "" {
			claimed.Roles = strings.Split(roles, ",")
		}
		subj, _, err := presented(r, claimed)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		t, err := g.mint(subj, time.Now())
		if err != nil {
			http.Error(w, err.Error(), http.StatusForbidden)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(MintResponse{
			Token:       t.EncodeString(),
			ExpiresUnix: t.IssuedAt + int64(g.Minter.TTL()/time.Second),
			Subject:     fmt.Sprintf("%x", t.Subject),
		})
	}
}

// EncodeWallet renders a wallet for transport: base64url over its JSON
// encoding (header- and form-value-clean).
func EncodeWallet(w *credential.Wallet) (string, error) {
	raw, err := json.Marshal(w)
	if err != nil {
		return "", fmt.Errorf("authtoken: encode wallet: %w", err)
	}
	return base64.RawURLEncoding.EncodeToString(raw), nil
}

// decodeWallet parses the transport form.
func decodeWallet(enc string) (*credential.Wallet, error) {
	raw, err := base64.RawURLEncoding.DecodeString(enc)
	if err != nil {
		return nil, fmt.Errorf("%w: wallet encoding: %v", ErrMalformed, err)
	}
	var w credential.Wallet
	if err := json.Unmarshal(raw, &w); err != nil {
		return nil, fmt.Errorf("%w: wallet: %v", ErrMalformed, err)
	}
	return &w, nil
}
