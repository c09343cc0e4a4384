package wsa

import (
	"fmt"
	"strings"
	"testing"

	"webdbsec/internal/policy"
	"webdbsec/internal/synth"
	"webdbsec/internal/uddi"
	"webdbsec/internal/wsig"
	"webdbsec/internal/xmldoc"
)

// demoAgency is cmd/uddiserver -mode untrusted -demo n without HTTP: the
// two demo policies, n synthetic entries signed by one provider, and the
// requestor's key directory.
func demoAgency(tb testing.TB, n int) (*uddi.UntrustedAgency, *wsig.KeyDirectory) {
	tb.Helper()
	base := policy.NewBase(nil)
	base.MustAdd(&policy.Policy{
		Name:    "entries-public",
		Subject: policy.SubjectSpec{IDs: []string{"*"}},
		Object:  policy.ObjectSpec{Doc: "*"},
		Priv:    policy.Read, Sign: policy.Permit, Prop: policy.Cascade,
	})
	base.MustAdd(&policy.Policy{
		Name:    "bindings-partner-only",
		Subject: policy.SubjectSpec{NotRoles: []string{"partner"}},
		Object:  policy.ObjectSpec{Doc: "*", Path: "//bindingTemplate"},
		Priv:    policy.Read, Sign: policy.Deny, Prop: policy.Cascade,
	})
	agency := uddi.NewUntrustedAgency(base)
	prov, err := uddi.NewProvider("demo-provider")
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < n; i++ {
		entry, err := prov.Sign(synth.Entity(demoKey(i), "logistics", 2))
		if err != nil {
			tb.Fatal(err)
		}
		if err := agency.Publish(entry); err != nil {
			tb.Fatal(err)
		}
	}
	dir := wsig.NewKeyDirectory()
	dir.RegisterSigner(prov.Signer())
	return agency, dir
}

func demoKey(i int) string { return fmt.Sprintf("be-%05d", i) }

// inquiry is one query_authenticated request as a requestor sends it.
func inquiry(sender string, roles []string, key string) string {
	b := xmldoc.NewBuilder("req", "queryAuthenticated")
	b.Attrib("businessKey", key)
	return (&Envelope{Operation: "query_authenticated", Sender: sender, Roles: roles, Body: b.Freeze()}).Encode()
}

// clientDecode is the requestor's side up to, not including, Verify.
func clientDecode(tb testing.TB, reply string) *uddi.AuthenticatedResult {
	env, err := DecodeEnvelope(strings.NewReader(reply))
	if err != nil {
		tb.Fatal(err)
	}
	res, err := DecodeAuthenticated(env.Body)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// BenchmarkInquiry times the stages of one §4.1 inquiry — a non-partner
// requestor drilling down on one of 200 entries — in the order the two
// sides run them.
func BenchmarkInquiry(b *testing.B) {
	agency, dir := demoAgency(b, 200)
	subject := &policy.Subject{ID: "visitor-7", Roles: []string{"visitor"}}
	request := inquiry(subject.ID, subject.Roles, demoKey(17))
	res, err := agency.Query(subject, demoKey(17))
	if err != nil {
		b.Fatal(err)
	}
	reply := string(authenticatedReply("query_authenticated", res))

	b.Run("server_decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := DecodeEnvelope(strings.NewReader(request)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("query", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := agency.Query(subject, demoKey(17)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			authenticatedReply("query_authenticated", res)
		}
	})
	b.Run("client_decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			clientDecode(b, reply)
		}
	})
	// verify_first pays the Ed25519 check every time: each iteration asks
	// a directory that has never seen the signature.
	b.Run("verify_first", func(b *testing.B) {
		got := clientDecode(b, reply)
		pub, _ := dir.Lookup("demo-provider")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fresh := wsig.NewKeyDirectory()
			fresh.Register("demo-provider", pub)
			if err := got.Verify(fresh); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("verify_again", func(b *testing.B) {
		got := clientDecode(b, reply)
		if err := got.Verify(dir); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := got.Verify(dir); err != nil {
				b.Fatal(err)
			}
		}
	})
}
