package authtoken

import (
	"encoding/base64"
	"encoding/json"
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
//	          form "subject", "roles": the serving identity
//	response  X-Auth-Token: the successor (or freshly minted) token
//	          X-Auth-Expires: its expiry, unix seconds
//
// The response headers are what makes refresh transparent: every
// authenticated response re-arms the client with the token to present
// next, so rotation and single-use consumption never surface as errors
// on a well-behaved client.

// Header names.
const (
	// TokenHeader carries the token, request and response.
	TokenHeader = "X-Auth-Token"
	// WalletHeader carries the base64url JSON wallet on surfaces whose
	// body is not form-encoded (the wsa envelope endpoint).
	WalletHeader = "X-Auth-Wallet"
	// ExpiresHeader carries the response token's expiry, unix seconds.
	ExpiresHeader = "X-Auth-Expires"
)

// Service is the HTTP surface: a mint endpoint plus per-request
// authentication for handlers.
type Service struct {
	Gate *Gate
}

// SubjectFromRequest builds the presented subject from the request's
// form fields and auth headers. The wallet, when present, is only
// *decoded* here — verification is the minter's job.
func SubjectFromRequest(r *http.Request) (*policy.Subject, error) {
	s := &policy.Subject{ID: r.FormValue("subject")}
	if roles := r.FormValue("roles"); roles != "" {
		s.Roles = strings.Split(roles, ",")
	}
	enc := r.FormValue("wallet")
	if enc == "" {
		enc = r.Header.Get(WalletHeader)
	}
	if enc != "" {
		w, err := DecodeWallet(enc)
		if err != nil {
			return nil, err
		}
		s.Wallet = w
	}
	return s, nil
}

// tokenFromRequest extracts the raw presented token, nil when absent.
func tokenFromRequest(r *http.Request) ([]byte, error) {
	enc := r.Header.Get(TokenHeader)
	if enc == "" {
		enc = r.FormValue("token")
	}
	if enc == "" {
		return nil, nil
	}
	raw, err := base64.RawURLEncoding.DecodeString(enc)
	if err != nil {
		return nil, fmt.Errorf("%w: token encoding: %v", ErrMalformed, err)
	}
	return raw, nil
}

// Authorize authenticates the request: token fast path first, wallet
// fallback, legacy passthrough when no material is presented. On success
// it arms the response with the next token and returns the serving
// subject; on failure it writes 401 and returns ok=false — the handler
// must stop.
func (s *Service) Authorize(w http.ResponseWriter, r *http.Request) (*policy.Subject, bool) {
	subj, err := SubjectFromRequest(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return nil, false
	}
	raw, err := tokenFromRequest(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return nil, false
	}
	res, err := s.Gate.Authenticate(subj, raw, time.Now())
	if err != nil {
		http.Error(w, err.Error(), http.StatusUnauthorized)
		return nil, false
	}
	if res.Token != nil {
		w.Header().Set(TokenHeader, res.Token.EncodeString())
		w.Header().Set(ExpiresHeader, strconv.FormatInt(res.ExpiresAt.Unix(), 10))
	}
	// The wallet authenticated (or qualified) the request; handlers and
	// everything below them see the serving identity, same as the fast
	// path, so decisions and caches key identically on both.
	return &policy.Subject{ID: subj.ID, Roles: subj.Roles}, true
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
func (s *Service) MintHandler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		subj, err := SubjectFromRequest(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		t, err := s.Gate.mint(subj, time.Now())
		if err != nil {
			http.Error(w, err.Error(), http.StatusForbidden)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(MintResponse{
			Token:       t.EncodeString(),
			ExpiresUnix: t.IssuedAt + int64(s.Gate.Minter.TTL()/time.Second),
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

// DecodeWallet parses the transport form.
func DecodeWallet(enc string) (*credential.Wallet, error) {
	raw, err := base64.RawURLEncoding.DecodeString(enc)
	if err != nil {
		return nil, fmt.Errorf("authtoken: wallet encoding: %w", err)
	}
	var w credential.Wallet
	if err := json.Unmarshal(raw, &w); err != nil {
		return nil, fmt.Errorf("authtoken: wallet decode: %w", err)
	}
	return &w, nil
}
