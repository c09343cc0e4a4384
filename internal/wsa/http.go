package wsa

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"webdbsec/internal/authtoken"
	"webdbsec/internal/credential"
	"webdbsec/internal/merkle"
	"webdbsec/internal/policy"
	"webdbsec/internal/resilience"
	"webdbsec/internal/uddi"
	"webdbsec/internal/wsig"
	"webdbsec/internal/xmldoc"
)

// MaxRequestBody caps an envelope POST. A malformed or hostile client
// must not be able to balloon the server's memory: a larger body is
// answered 413. Within the cap, an envelope nested deeper than
// xmldoc.MaxDepth (256 elements; a reply envelope holds about a dozen) is
// refused by the reader and answered 400.
const MaxRequestBody = 10 << 20 // 10 MiB

// internalError marks dispatch failures that are the server's fault; the
// HTTP binding maps them to 500 instead of 400.
type internalError struct{ err error }

func (e *internalError) Error() string { return e.err.Error() }
func (e *internalError) Unwrap() error { return e.err }

// internalf builds a server-fault error.
func internalf(format string, args ...any) error {
	return &internalError{err: fmt.Errorf(format, args...)}
}

// faultStatus maps a dispatch error onto an HTTP status: server faults
// are 500, everything else — malformed bodies, unknown operations,
// registry refusals — is the client's fault and gets 400.
func faultStatus(err error) int {
	var ie *internalError
	if errors.As(err, &ie) {
		return http.StatusInternalServerError
	}
	return http.StatusBadRequest
}

// RegistryServer is the HTTP binding of a UDDI registry: one POST endpoint
// accepting envelopes, dispatching on the operation name. When an
// UntrustedAgency is attached, the additional "query_authenticated"
// operation serves Merkle-authenticated views (the §4.1 third-party
// protocol); otherwise the server behaves as a two-party or trusted
// third-party deployment.
type RegistryServer struct {
	Registry *uddi.Registry
	Agency   *uddi.UntrustedAgency
	// Auth is the front door every envelope passes before dispatch: the
	// envelope's sender and roles are the claimed identity, and the token
	// (X-Auth-Token) or wallet (X-Auth-Wallet) it presents must prove it.
	// An envelope that presents neither is refused 401, and every
	// authenticated response arms the client with the token to present
	// next. Nil turns authentication off: envelopes are served as the
	// identity they assert.
	Auth *authtoken.Gate
	// Logf, when set, receives server-side diagnostics (recovered panic
	// values among them). Defaults to the standard logger.
	Logf func(format string, args ...any)
}

// logf routes a diagnostic to the configured logger.
func (s *RegistryServer) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
		return
	}
	log.Printf(format, args...)
}

// Describe returns the service description for this server.
func (s *RegistryServer) Describe(endpoint string) *ServiceDescription {
	ops := []OperationDesc{
		{Name: "find_business", Input: "findBusiness", Output: "businessList"},
		{Name: "find_service", Input: "findService", Output: "serviceList"},
		{Name: "get_businessDetail", Input: "getBusinessDetail", Output: "businessDetail"},
		{Name: "save_business", Input: "businessEntity", Output: "result"},
		{Name: "delete_business", Input: "deleteBusiness", Output: "result"},
	}
	if s.Agency != nil {
		ops = append(ops, OperationDesc{Name: "query_authenticated", Input: "queryAuthenticated", Output: "authenticatedResult"})
	}
	return &ServiceDescription{Name: "uddi-registry", Endpoint: endpoint, Operations: ops}
}

// ServeHTTP implements http.Handler. The binding is hardened against
// hostile input: panics in dispatch are recovered into a 500 fault (a
// malformed envelope must never kill the server), and request bodies are
// capped at MaxRequestBody.
func (s *RegistryServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer func() {
		if p := recover(); p != nil {
			// Headers may already be out if the panic hit mid-write; the
			// superfluous-WriteHeader log line is the lesser evil next to
			// a dead server. The panic value itself stays server-side:
			// it can carry whatever was in flight — internal paths, key
			// material, fragments of other requests — so the wire gets
			// an opaque fault and the operator log gets the detail.
			s.logf("wsa: panic serving %s: %v", r.URL.Path, p)
			writeFault(w, http.StatusInternalServerError, "wsa: internal error")
		}
	}()
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if r.ContentLength > MaxRequestBody {
		writeFault(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("wsa: request body %d bytes exceeds %d", r.ContentLength, MaxRequestBody))
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, MaxRequestBody)
	env, err := DecodeEnvelope(r.Body)
	if err != nil {
		status := http.StatusBadRequest
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			status = http.StatusRequestEntityTooLarge
		}
		writeFault(w, status, err.Error())
		return
	}
	req, status, err := s.Auth.Authorize(w, r, &policy.Subject{ID: env.Sender, Roles: env.Roles})
	if err != nil {
		writeFault(w, status, err.Error())
		return
	}
	resp, err := s.dispatch(env, req)
	if err != nil {
		writeFault(w, faultStatus(err), err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/xml")
	w.Write(resp)
}

func writeFault(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/xml")
	w.WriteHeader(code)
	w.Write((&Envelope{Fault: msg}).encode())
}

// dispatch runs the operation as req, the subject the front door
// established, and returns the encoded reply envelope.
func (s *RegistryServer) dispatch(env *Envelope, req *policy.Subject) ([]byte, error) {
	switch env.Operation {
	case "find_business":
		pattern, category := "", (*uddi.KeyedReference)(nil)
		if env.Body != nil {
			pattern, _ = env.Body.Root.Attr("name")
			if kr := env.Body.Root.Child("keyedReference"); kr != nil {
				var c uddi.KeyedReference
				c.TModelKey, _ = kr.Attr("tModelKey")
				c.KeyValue, _ = kr.Attr("keyValue")
				category = &c
			}
		}
		infos := s.Registry.FindBusiness(req, pattern, category)
		b := xmldoc.NewBuilder("resp", "businessList")
		for _, bi := range infos {
			b.Begin("businessInfo").
				Attrib("businessKey", bi.BusinessKey).
				Attrib("name", bi.Name).
				End()
		}
		return reply(env.Operation, b.Freeze()), nil

	case "find_service":
		pattern := ""
		if env.Body != nil {
			pattern, _ = env.Body.Root.Attr("name")
		}
		infos := s.Registry.FindService(req, pattern)
		b := xmldoc.NewBuilder("resp", "serviceList")
		for _, si := range infos {
			b.Begin("serviceInfo").
				Attrib("serviceKey", si.ServiceKey).
				Attrib("businessKey", si.BusinessKey).
				Attrib("name", si.Name).
				End()
		}
		return reply(env.Operation, b.Freeze()), nil

	case "get_businessDetail":
		if env.Body == nil {
			return nil, fmt.Errorf("wsa: get_businessDetail needs a body")
		}
		var keys []string
		for _, c := range env.Body.Root.ElementChildren() {
			if c.Name == "businessKey" {
				keys = append(keys, c.Text())
			}
		}
		ents, err := s.Registry.GetBusinessDetail(req, keys...)
		if err != nil {
			return nil, err
		}
		return reply(env.Operation, businessDetail(ents)), nil

	case "save_business":
		if env.Body == nil {
			return nil, fmt.Errorf("wsa: save_business needs a body")
		}
		e, err := uddi.EntityFromXML(env.Body)
		if err != nil {
			return nil, err
		}
		if err := s.Registry.SaveBusiness(req.ID, e); err != nil {
			return nil, err
		}
		return okReply(env.Operation), nil

	case "delete_business":
		if env.Body == nil {
			return nil, fmt.Errorf("wsa: delete_business needs a body")
		}
		key, _ := env.Body.Root.Attr("businessKey")
		if err := s.Registry.DeleteBusiness(req.ID, key); err != nil {
			return nil, err
		}
		return okReply(env.Operation), nil

	case "query_authenticated":
		if s.Agency == nil {
			// Deployment misconfiguration, not the requestor's fault.
			return nil, internalf("wsa: no untrusted agency attached")
		}
		if env.Body == nil {
			return nil, fmt.Errorf("wsa: query_authenticated needs a body")
		}
		key, _ := env.Body.Root.Attr("businessKey")
		res, err := s.Agency.Query(req, key)
		if err != nil {
			return nil, err
		}
		return authenticatedReply(env.Operation, res), nil

	default:
		return nil, fmt.Errorf("wsa: unknown operation %q", env.Operation)
	}
}

// reply encodes a successful response carrying body.
func reply(op string, body *xmldoc.Document) []byte {
	return (&Envelope{Operation: op, Body: body}).encode()
}

// businessDetail gathers the entities' documents under one root.
func businessDetail(ents []*uddi.BusinessEntity) *xmldoc.Document {
	root := &xmldoc.Node{Kind: xmldoc.KindElement, Name: "businessDetail"}
	for _, e := range ents {
		root.Children = append(root.Children, e.ToXML().Root)
	}
	return xmldoc.Detach("resp", root)
}

func okReply(op string) []byte {
	b := xmldoc.NewBuilder("resp", "result")
	b.Attrib("status", "ok")
	return reply(op, b.Freeze())
}

// authenticatedReply encodes a response carrying an AuthenticatedResult:
// envelope and payload go into one buffer, with no document in between.
func authenticatedReply(op string, res *uddi.AuthenticatedResult) []byte {
	out := &Envelope{Operation: op}
	return out.appendClose(appendAuthenticated(out.appendOpen(nil), res))
}

// appendAuthenticated appends the canonical wire form of an
// AuthenticatedResult: the summary signature, the proof (positions + hex
// hashes, attributes in canonical order) and the view.
func appendAuthenticated(dst []byte, res *uddi.AuthenticatedResult) []byte {
	dst = append(dst, "<authenticatedResult><summary "...)
	dst = xmldoc.AppendAttr(dst, "signer", res.Summary.Sig.Signer)
	dst = append(dst, ` value="`...)
	dst = hex.AppendEncode(dst, res.Summary.Sig.Value)
	dst = append(dst, `"></summary><proof>`...)
	for _, ep := range res.Proof.Elems {
		dst = append(dst, "<element>"...)
		for _, m := range ep.Missing {
			dst = append(dst, `<missing hash="`...)
			dst = hex.AppendEncode(dst, m.Hash)
			dst = append(dst, `" pos="`...)
			dst = strconv.AppendInt(dst, int64(m.Pos), 10)
			dst = append(dst, `"></missing>`...)
		}
		dst = append(dst, "</element>"...)
	}
	dst = append(dst, "</proof><view>"...)
	dst = xmldoc.AppendCanonical(dst, res.View.Root)
	return append(dst, "</view></authenticatedResult>"...)
}

// DecodeAuthenticated reads the wire form back into an AuthenticatedResult
// the requestor can Verify. It consumes body: the view is detached from it
// in place (xmldoc.Detach), so body must not be used afterwards.
func DecodeAuthenticated(body *xmldoc.Document) (*uddi.AuthenticatedResult, error) {
	if body == nil || body.Root.Name != "authenticatedResult" {
		return nil, fmt.Errorf("wsa: not an authenticatedResult")
	}
	res := &uddi.AuthenticatedResult{Proof: &merkle.Proof{}}
	if s := body.Root.Child("summary"); s != nil {
		signer, _ := s.Attr("signer")
		val, _ := s.Attr("value")
		raw, err := hex.DecodeString(val)
		if err != nil {
			return nil, fmt.Errorf("wsa: summary signature: %w", err)
		}
		res.Summary = merkle.SummarySignature{Sig: wsig.Signature{Signer: signer, Value: raw}}
	}
	if p := body.Root.Child("proof"); p != nil {
		res.Proof.Elems = make([]merkle.ElementProof, 0, len(p.Children))
		for _, el := range p.Children {
			if el.Kind != xmldoc.KindElement || el.Name != "element" {
				continue
			}
			ep := merkle.ElementProof{}
			for _, m := range el.Children {
				if m.Kind != xmldoc.KindElement || m.Name != "missing" {
					continue
				}
				posStr, _ := m.Attr("pos")
				hashStr, _ := m.Attr("hash")
				pos, err := strconv.Atoi(posStr)
				if err != nil {
					return nil, fmt.Errorf("wsa: proof position: %w", err)
				}
				h, err := hex.DecodeString(hashStr)
				if err != nil {
					return nil, fmt.Errorf("wsa: proof hash: %w", err)
				}
				ep.Missing = append(ep.Missing, merkle.PosHash{Pos: pos, Hash: h})
			}
			res.Proof.Elems = append(res.Proof.Elems, ep)
		}
	}
	if v := body.Root.Child("view"); v != nil {
		inner := v.ElementChildren()
		if len(inner) != 1 {
			return nil, fmt.Errorf("wsa: view must wrap exactly one element")
		}
		res.View = xmldoc.Detach("view", inner[0])
	}
	if res.View == nil {
		return nil, fmt.Errorf("wsa: authenticatedResult missing view")
	}
	return res, nil
}

// Client is a requestor-side helper speaking the envelope protocol. Retry
// and Breaker, when set, make calls resilient: transient transport
// failures (network errors, 5xx) are retried with backoff, and a peer
// that keeps failing trips the circuit so callers fail fast instead of
// piling onto a sick service. Application faults (4xx envelopes) are
// terminal — they are never retried and never count against the breaker.
type Client struct {
	Endpoint string
	Sender   string
	Roles    []string
	HTTP     *http.Client
	// Retry, when non-nil, retries retryable-class failures.
	Retry *resilience.RetryPolicy
	// Breaker, when non-nil, guards every call.
	Breaker *resilience.Breaker
	// Auth, when non-nil, attaches token/wallet auth material to every
	// call and transparently refreshes the token from response headers.
	Auth *TokenAuth
}

// TokenAuth holds a client's auth material: the wallet that qualifies it
// on the slow path and the current single-use token. Every request takes
// the token (tokens are consumed server-side, so a taken token is never
// re-presented) and attaches the wallet alongside; every authenticated
// response stores the successor the server returned. A request that loses
// its response — or a concurrent call that finds the token already taken
// — simply re-qualifies on the wallet path and comes back token-armed, so
// refresh needs no client-visible protocol. Concurrent calls sharing one
// TokenAuth therefore stay correct but only one of them rides the fast
// path per hop.
type TokenAuth struct {
	Wallet *credential.Wallet

	mu    sync.Mutex
	token string // seclint:guardedby mu
}

// take removes and returns the held token (empty when none).
func (a *TokenAuth) take() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	t := a.token
	a.token = ""
	return t
}

// store keeps a successor token from a response; empty is a no-op.
func (a *TokenAuth) store(t string) {
	if t == "" {
		return
	}
	a.mu.Lock()
	a.token = t
	a.mu.Unlock()
}

// Token reports the currently held token without consuming it (tests and
// introspection).
func (a *TokenAuth) Token() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.token
}

// Call posts an envelope under ctx and decodes the response, applying
// the client's breaker and retry policy. ctx bounds the whole exchange
// including retries.
func (c *Client) Call(ctx context.Context, op string, body *xmldoc.Document) (*Envelope, error) {
	env := &Envelope{Operation: op, Sender: c.Sender, Roles: c.Roles, Body: body}
	payload := env.Encode()
	attempt := func(ctx context.Context) (*Envelope, error) {
		if c.Breaker != nil {
			if err := c.Breaker.Allow(); err != nil {
				return nil, err
			}
		}
		out, err := c.post(ctx, op, payload)
		if c.Breaker != nil {
			c.Breaker.Record(err)
		}
		return out, err
	}
	if c.Retry == nil {
		return attempt(ctx)
	}
	return resilience.RetryValue(ctx, *c.Retry, attempt)
}

// post performs one HTTP exchange. Errors are classified for the retry
// and breaker layers: transport failures and 5xx responses stay
// retryable, application faults are marked terminal.
func (c *Client) post(ctx context.Context, op, payload string) (*Envelope, error) {
	httpc := c.HTTP
	if httpc == nil {
		httpc = http.DefaultClient
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Endpoint, strings.NewReader(payload))
	if err != nil {
		return nil, resilience.MarkTerminal(fmt.Errorf("wsa: call %s: %w", op, err))
	}
	req.Header.Set("Content-Type", "application/xml")
	var sentTok string
	if c.Auth != nil {
		if sentTok = c.Auth.take(); sentTok != "" {
			req.Header.Set(authtoken.TokenHeader, sentTok)
		}
		if c.Auth.Wallet != nil {
			// The wallet always rides along: it costs the server nothing
			// while the token verifies (the gate checks the token first)
			// and it is the transparent re-qualification path when the
			// token has expired, rotated away, or was lost with a response.
			enc, err := authtoken.EncodeWallet(c.Auth.Wallet)
			if err != nil {
				return nil, resilience.MarkTerminal(fmt.Errorf("wsa: call %s: %w", op, err))
			}
			req.Header.Set(authtoken.WalletHeader, enc)
		}
	}
	resp, err := httpc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("wsa: call %s: %w", op, err)
	}
	defer resp.Body.Close()
	if c.Auth != nil {
		if succ := resp.Header.Get(authtoken.TokenHeader); succ != "" {
			c.Auth.store(succ)
		} else if sentTok != "" && resp.StatusCode < 400 {
			// The call succeeded but granted no successor: a read replica
			// (which verifies without consuming) or an auth-less endpoint.
			// The presented token is still live — keep it.
			c.Auth.store(sentTok)
		}
	}
	out, decErr := DecodeEnvelope(io.LimitReader(resp.Body, MaxRequestBody))
	if resp.StatusCode >= 500 {
		// Server-side failure: retryable. Prefer the fault text when the
		// body carried one.
		if decErr == nil && out.Fault != "" {
			return out, fmt.Errorf("wsa: fault from %s: %s", op, out.Fault)
		}
		return nil, fmt.Errorf("wsa: call %s: server error %d", op, resp.StatusCode)
	}
	if decErr != nil {
		return nil, decErr
	}
	if out.Fault != "" {
		// Application fault: the request itself is wrong; retrying the
		// same envelope cannot help.
		return out, resilience.MarkTerminal(fmt.Errorf("wsa: fault from %s: %s", op, out.Fault))
	}
	return out, nil
}

// FindBusiness browses the remote registry under ctx.
func (c *Client) FindBusiness(ctx context.Context, pattern string) ([]uddi.BusinessInfo, error) {
	b := xmldoc.NewBuilder("req", "findBusiness")
	b.Attrib("name", pattern)
	env, err := c.Call(ctx, "find_business", b.Freeze())
	if err != nil {
		return nil, err
	}
	var out []uddi.BusinessInfo
	for _, bi := range env.Body.Root.ElementChildren() {
		if bi.Name != "businessInfo" {
			continue
		}
		var info uddi.BusinessInfo
		info.BusinessKey, _ = bi.Attr("businessKey")
		info.Name, _ = bi.Attr("name")
		out = append(out, info)
	}
	return out, nil
}

// FindService browses services on the remote registry under ctx.
func (c *Client) FindService(ctx context.Context, pattern string) ([]uddi.ServiceInfo, error) {
	b := xmldoc.NewBuilder("req", "findService")
	b.Attrib("name", pattern)
	env, err := c.Call(ctx, "find_service", b.Freeze())
	if err != nil {
		return nil, err
	}
	var out []uddi.ServiceInfo
	for _, si := range env.Body.Root.ElementChildren() {
		if si.Name != "serviceInfo" {
			continue
		}
		var info uddi.ServiceInfo
		info.ServiceKey, _ = si.Attr("serviceKey")
		info.BusinessKey, _ = si.Attr("businessKey")
		info.Name, _ = si.Attr("name")
		out = append(out, info)
	}
	return out, nil
}

// GetBusinessDetail drills down on the remote registry under ctx.
func (c *Client) GetBusinessDetail(ctx context.Context, keys ...string) ([]*uddi.BusinessEntity, error) {
	b := xmldoc.NewBuilder("req", "getBusinessDetail")
	for _, k := range keys {
		b.Element("businessKey", k)
	}
	env, err := c.Call(ctx, "get_businessDetail", b.Freeze())
	if err != nil {
		return nil, err
	}
	var out []*uddi.BusinessEntity
	for _, en := range env.Body.Root.ElementChildren() {
		if en.Name != "businessEntity" {
			continue
		}
		e, err := uddi.EntityFromXML(xmldoc.Detach("entity", en))
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}

// SaveBusiness publishes an entity to the remote registry under ctx.
func (c *Client) SaveBusiness(ctx context.Context, e *uddi.BusinessEntity) error {
	_, err := c.Call(ctx, "save_business", e.ToXML())
	return err
}

// QueryAuthenticated fetches a Merkle-authenticated view under ctx and
// verifies it against the key directory before returning.
func (c *Client) QueryAuthenticated(ctx context.Context, businessKey string, dir *wsig.KeyDirectory) (*uddi.AuthenticatedResult, error) {
	b := xmldoc.NewBuilder("req", "queryAuthenticated")
	b.Attrib("businessKey", businessKey)
	env, err := c.Call(ctx, "query_authenticated", b.Freeze())
	if err != nil {
		return nil, err
	}
	res, err := DecodeAuthenticated(env.Body)
	if err != nil {
		return nil, err
	}
	if err := res.Verify(dir); err != nil {
		return nil, fmt.Errorf("wsa: authenticity check failed: %w", err)
	}
	return res, nil
}
