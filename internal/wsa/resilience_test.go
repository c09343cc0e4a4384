package wsa

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"webdbsec/internal/resilience"
	"webdbsec/internal/resilience/faultinject"
	"webdbsec/internal/uddi"
	"webdbsec/internal/xmldoc"
)

// noSleep keeps client retries instant in tests.
var noSleep = func(context.Context, time.Duration) error { return nil }

// TestPanicInDispatchRecovered: a panic anywhere in dispatch must become a
// 500 fault, not a dead server. A nil Registry makes every operation
// panic.
func TestPanicInDispatchRecovered(t *testing.T) {
	var logged atomic.Value
	rs := &RegistryServer{ // Registry == nil → nil dereference in dispatch
		Logf: func(format string, args ...any) {
			logged.Store(fmt.Sprintf(format, args...))
		},
	}
	ts := httptest.NewServer(rs)
	defer ts.Close()
	b := xmldoc.NewBuilder("req", "findBusiness")
	env := &Envelope{Operation: "find_business", Sender: "x", Body: b.Freeze()}
	resp, err := http.Post(ts.URL, "application/xml", strings.NewReader(env.Encode()))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("status = %d, want 500", resp.StatusCode)
	}
	// The fault on the wire must be opaque: the panic value (here a
	// runtime nil-dereference message) is server-side diagnostics, not
	// client-visible content.
	if strings.Contains(string(body), "runtime error") {
		t.Errorf("panic detail leaked to client: %q", body)
	}
	if !strings.Contains(string(body), "wsa: internal error") {
		t.Errorf("fault body = %q, want generic internal-error fault", body)
	}
	if lg, _ := logged.Load().(string); !strings.Contains(lg, "runtime error") {
		t.Errorf("server log = %q, want the recovered panic value", lg)
	}
	// The server must still answer subsequent requests.
	resp, err = http.Post(ts.URL, "application/xml", strings.NewReader(env.Encode()))
	if err != nil {
		t.Fatalf("server dead after panic: %v", err)
	}
	resp.Body.Close()
}

// TestOversizedBodyRejected: bodies beyond MaxRequestBody are refused with
// 413 instead of being slurped into memory.
func TestOversizedBodyRejected(t *testing.T) {
	ts, _ := newServer(t)
	huge := strings.Repeat("a", MaxRequestBody+1)
	// A declared length is refused up front; a chunked body when reading
	// it crosses the cap.
	for _, body := range []io.Reader{strings.NewReader(huge), io.MultiReader(strings.NewReader(huge))} {
		resp, err := http.Post(ts.URL, "application/xml", body)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%T: status = %d, want 413", body, resp.StatusCode)
		}
	}
}

// TestDeeplyNestedBodyRejected: a body under MaxRequestBody nested past
// xmldoc.MaxDepth is refused with 400, and the server goes on answering.
func TestDeeplyNestedBodyRejected(t *testing.T) {
	agency, dir := demoAgency(t, 5)
	ts := httptest.NewServer(&RegistryServer{Registry: uddi.NewRegistry(nil), Agency: agency})
	defer ts.Close()
	const depth = 1_000_000
	deep := strings.Repeat("<a>", depth) + strings.Repeat("</a>", depth)
	if len(deep) >= MaxRequestBody {
		t.Fatalf("%d-byte body is not under the cap", len(deep))
	}
	resp, err := http.Post(ts.URL, "application/xml", strings.NewReader(deep))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	c := &Client{Endpoint: ts.URL, Sender: "visitor"}
	if _, err := c.QueryAuthenticated(context.Background(), demoKey(3), dir); err != nil {
		t.Fatalf("inquiry after the refusal: %v", err)
	}
}

// TestDispatchErrorStatuses: client mistakes are 400, server
// misconfiguration is 500 — never 200 with a fault inside (the bug this
// fixes).
func TestDispatchErrorStatuses(t *testing.T) {
	ts, _ := newServer(t)
	post := func(env *Envelope) int {
		t.Helper()
		resp, err := http.Post(ts.URL, "application/xml", strings.NewReader(env.Encode()))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(&Envelope{Operation: "no_such_op", Sender: "x"}); code != http.StatusBadRequest {
		t.Errorf("unknown op: status = %d, want 400", code)
	}
	// query_authenticated with no agency: deployment fault, not the
	// requestor's.
	b := xmldoc.NewBuilder("req", "queryAuthenticated")
	b.Attrib("businessKey", "k")
	env := &Envelope{Operation: "query_authenticated", Sender: "x", Body: b.Freeze()}
	if code := post(env); code != http.StatusInternalServerError {
		t.Errorf("missing agency: status = %d, want 500", code)
	}
}

// TestClientRetriesTransientServerError: a 503-then-healthy service is
// papered over by the retry layer.
func TestClientRetriesTransientServerError(t *testing.T) {
	rs := &RegistryServer{Registry: uddi.NewRegistry(nil)}
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "warming up", http.StatusServiceUnavailable)
			return
		}
		rs.ServeHTTP(w, r)
	}))
	defer ts.Close()
	c := &Client{
		Endpoint: ts.URL, Sender: "x",
		Retry: &resilience.RetryPolicy{MaxAttempts: 4, Sleep: noSleep},
	}
	if _, err := c.FindBusiness(context.Background(), ""); err != nil {
		t.Fatalf("retry did not recover from transient 503s: %v", err)
	}
	if calls.Load() != 3 {
		t.Errorf("calls = %d, want 3 (two failures + one success)", calls.Load())
	}
}

// TestClientDoesNotRetryApplicationFault: a 4xx fault envelope means the
// request is wrong — retrying the same bytes is futile and must not
// happen.
func TestClientDoesNotRetryApplicationFault(t *testing.T) {
	var calls atomic.Int64
	rs := &RegistryServer{Registry: uddi.NewRegistry(nil)}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		rs.ServeHTTP(w, r)
	}))
	defer ts.Close()
	c := &Client{
		Endpoint: ts.URL, Sender: "x",
		Retry: &resilience.RetryPolicy{MaxAttempts: 5, Sleep: noSleep},
	}
	if _, err := c.Call(context.Background(), "no_such_op", nil); err == nil {
		t.Fatal("unknown operation succeeded")
	}
	if calls.Load() != 1 {
		t.Errorf("application fault retried: %d calls", calls.Load())
	}
}

// TestClientBreakerOpensAndFailsFast: a consistently failing endpoint
// trips the circuit; later calls are rejected without touching the wire.
func TestClientBreakerOpensAndFailsFast(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer ts.Close()
	br := resilience.NewBreaker(resilience.BreakerConfig{FailureThreshold: 3, Cooldown: time.Hour})
	c := &Client{Endpoint: ts.URL, Sender: "x", Breaker: br}
	for i := 0; i < 3; i++ {
		if _, err := c.FindBusiness(context.Background(), ""); err == nil {
			t.Fatal("call to dead service succeeded")
		}
	}
	wire := calls.Load()
	if br.State() != resilience.Open {
		t.Fatalf("breaker state = %v after %d failures", br.State(), wire)
	}
	if _, err := c.FindBusiness(context.Background(), ""); !errors.Is(err, resilience.ErrOpen) {
		t.Errorf("open-circuit call error = %v", err)
	}
	if calls.Load() != wire {
		t.Errorf("open circuit still reached the wire: %d → %d calls", wire, calls.Load())
	}
}

// TestClientBreakerIgnoresApplicationFaults: a flood of 4xx faults says
// nothing about the service's health and must not open the circuit.
func TestClientBreakerIgnoresApplicationFaults(t *testing.T) {
	ts, _ := newServer(t)
	br := resilience.NewBreaker(resilience.BreakerConfig{FailureThreshold: 2, Cooldown: time.Hour})
	c := &Client{Endpoint: ts.URL, Sender: "x", Breaker: br}
	for i := 0; i < 6; i++ {
		if _, err := c.Call(context.Background(), "no_such_op", nil); err == nil {
			t.Fatal("unknown operation succeeded")
		}
	}
	if br.State() != resilience.Closed {
		t.Errorf("client faults opened the breaker: %v", br.State())
	}
}

// TestClientContextDeadlineBoundsCall: a wedged server cannot hold the
// caller past its deadline.
func TestClientContextDeadlineBoundsCall(t *testing.T) {
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
	}))
	// Unblock the handler before Close — ts.Close waits for in-flight
	// handlers.
	defer ts.Close()
	defer close(release)
	c := &Client{Endpoint: ts.URL, Sender: "x"}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Call(ctx, "find_business", nil)
	if err == nil {
		t.Fatal("call to wedged server succeeded")
	}
	if time.Since(start) > 2*time.Second {
		t.Errorf("deadline did not bound the call: %v", time.Since(start))
	}
}

// TestClientRecoversFromInjectedTransportFaults drives the harness
// against the full client stack: a transport that errors twice then
// heals is absorbed by the retry layer.
func TestClientRecoversFromInjectedTransportFaults(t *testing.T) {
	ts, _ := newServer(t)
	inj := faultinject.New(faultinject.Steps(faultinject.Error, faultinject.Error))
	c := &Client{
		Endpoint: ts.URL, Sender: "x",
		HTTP:  &http.Client{Transport: faultinject.WrapTransport(nil, inj)},
		Retry: &resilience.RetryPolicy{MaxAttempts: 4, Sleep: noSleep},
	}
	if _, err := c.FindBusiness(context.Background(), ""); err != nil {
		t.Fatalf("retry did not absorb injected transport faults: %v", err)
	}
}

// TestClientCorruptedResponseSurfaces: a corrupted response body fails
// decoding loudly instead of yielding a silently wrong envelope.
func TestClientCorruptedResponseSurfaces(t *testing.T) {
	ts, _ := newServer(t)
	inj := faultinject.New(faultinject.Always(faultinject.Corrupt))
	c := &Client{
		Endpoint: ts.URL, Sender: "x",
		HTTP: &http.Client{Transport: faultinject.WrapTransport(nil, inj)},
	}
	if _, err := c.FindBusiness(context.Background(), ""); err == nil {
		t.Fatal("corrupted envelope accepted")
	}
}

// TestRetryExhaustionReportsAttempts: when every attempt fails the error
// says how many were made.
func TestRetryExhaustionReportsAttempts(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusBadGateway)
	}))
	defer ts.Close()
	c := &Client{
		Endpoint: ts.URL, Sender: "x",
		Retry: &resilience.RetryPolicy{MaxAttempts: 3, Sleep: noSleep},
	}
	_, err := c.FindBusiness(context.Background(), "")
	if err == nil {
		t.Fatal("call to dead service succeeded")
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("%d attempt", 3)) {
		t.Errorf("exhaustion error lacks attempt count: %v", err)
	}
}
