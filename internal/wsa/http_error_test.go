package wsa

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"webdbsec/internal/uddi"
	"webdbsec/internal/xmldoc"
)

func TestDecodeAuthenticatedMalformed(t *testing.T) {
	cases := []string{
		`<notAResult/>`,
		`<authenticatedResult><summary signer="p" value="zz-not-hex"/><proof/><view><a/></view></authenticatedResult>`,
		`<authenticatedResult><summary signer="p" value="00"/><proof><element><missing pos="x" hash="00"/></element></proof><view><a/></view></authenticatedResult>`,
		`<authenticatedResult><summary signer="p" value="00"/><proof><element><missing pos="1" hash="zz"/></element></proof><view><a/></view></authenticatedResult>`,
		`<authenticatedResult><summary signer="p" value="00"/><proof/></authenticatedResult>`,                      // no view
		`<authenticatedResult><summary signer="p" value="00"/><proof/><view><a/><b/></view></authenticatedResult>`, // two roots
	}
	for _, src := range cases {
		doc, err := xmldoc.ParseString("x", src)
		if err != nil {
			t.Fatalf("fixture %q: %v", src, err)
		}
		if _, err := DecodeAuthenticated(doc); err == nil {
			t.Errorf("DecodeAuthenticated(%q): want error", src)
		}
	}
	if _, err := DecodeAuthenticated(nil); err == nil {
		t.Error("nil document accepted")
	}
}

func TestDispatchMissingBodies(t *testing.T) {
	ts, _ := newServer(t)
	c := &Client{Endpoint: ts.URL, Sender: "x"}
	for _, op := range []string{"get_businessDetail", "save_business", "delete_business"} {
		if _, err := c.Call(context.Background(), op, nil); err == nil {
			t.Errorf("%s without body accepted", op)
		}
	}
	// query_authenticated without an agency attached.
	b := xmldoc.NewBuilder("req", "queryAuthenticated")
	b.Attrib("businessKey", "k")
	if _, err := c.Call(context.Background(), "query_authenticated", b.Freeze()); err == nil ||
		!strings.Contains(err.Error(), "no untrusted agency") {
		t.Errorf("query without agency: %v", err)
	}
}

func TestClientAgainstDeadEndpoint(t *testing.T) {
	ts := httptest.NewServer(nil)
	url := ts.URL
	ts.Close()
	c := &Client{Endpoint: url, Sender: "x"}
	if _, err := c.FindBusiness(context.Background(), "a"); err == nil {
		t.Error("call to dead endpoint succeeded")
	}
}

func TestSaveBusinessRejectsMalformedEntity(t *testing.T) {
	ts, _ := newServer(t)
	c := &Client{Endpoint: ts.URL, Sender: "pub"}
	// Entity without a name fails validation server-side.
	bad := &uddi.BusinessEntity{BusinessKey: "k"}
	if err := c.SaveBusiness(context.Background(), bad); err == nil {
		t.Error("malformed entity accepted over HTTP")
	}
}

func TestBadEnvelopeIsBadRequest(t *testing.T) {
	ts, _ := newServer(t)
	// Two envelopes back to back used to decode as the first, with the
	// second nested inside it.
	env := (&Envelope{Operation: "find_business", Sender: "x"}).Encode()
	for _, body := range []string{"this is not xml", env + env} {
		resp, err := http.Post(ts.URL, "application/xml", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%.40q: status = %d, want 400", body, resp.StatusCode)
		}
	}
}
