package uddi

import (
	"fmt"
	"strings"
	"testing"

	"webdbsec/internal/policy"
	"webdbsec/internal/wsig"
	"webdbsec/internal/xmldoc"
)

// thirdPartySetup builds: a provider with a signed Acme entry, an
// untrusted agency hosting it with a policy that hides binding templates
// from non-partners, and the requestors' key directory.
func thirdPartySetup(t *testing.T) (*Provider, *UntrustedAgency, *wsig.KeyDirectory) {
	t.Helper()
	prov, err := NewProvider("acme-provider")
	if err != nil {
		t.Fatal(err)
	}
	base := policy.NewBase(nil)
	base.MustAdd(&policy.Policy{
		Name:    "entry-public",
		Subject: policy.SubjectSpec{IDs: []string{"*"}},
		Object:  policy.ObjectSpec{Doc: DocName("be-acme")},
		Priv:    policy.Read,
		Sign:    policy.Permit,
		Prop:    policy.Cascade,
	})
	base.MustAdd(&policy.Policy{
		Name:    "bindings-partner-only",
		Subject: policy.SubjectSpec{NotRoles: []string{"partner"}},
		Object:  policy.ObjectSpec{Doc: DocName("be-acme"), Path: "//bindingTemplate"},
		Priv:    policy.Read,
		Sign:    policy.Deny,
		Prop:    policy.Cascade,
	})
	agency := NewUntrustedAgency(base)
	entry, err := prov.Sign(sampleEntity())
	if err != nil {
		t.Fatal(err)
	}
	if err := agency.Publish(entry); err != nil {
		t.Fatal(err)
	}
	dir := wsig.NewKeyDirectory()
	dir.RegisterSigner(prov.Signer())
	return prov, agency, dir
}

func TestHonestAgencyVerifies(t *testing.T) {
	_, agency, dir := thirdPartySetup(t)
	res, err := agency.Query(&policy.Subject{ID: "anyone"}, "be-acme")
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verify(dir); err != nil {
		t.Fatalf("honest result rejected: %v", err)
	}
	// Non-partner view must not contain bindings, and that omission is
	// covered by the proof.
	if strings.Contains(res.View.Canonical(), "bindingTemplate") {
		t.Error("bindings visible to non-partner")
	}
	if res.Proof.NumAuxHashes() == 0 {
		t.Error("expected auxiliary hashes for pruned bindings")
	}
}

func TestPartnerSeesBindingsAndVerifies(t *testing.T) {
	_, agency, dir := thirdPartySetup(t)
	res, err := agency.Query(&policy.Subject{ID: "p1", Roles: []string{"partner"}}, "be-acme")
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verify(dir); err != nil {
		t.Fatalf("partner result rejected: %v", err)
	}
	if !strings.Contains(res.View.Canonical(), "bindingTemplate") {
		t.Error("partner cannot see bindings")
	}
	e, err := res.Entity()
	if err != nil {
		t.Fatalf("Entity: %v", err)
	}
	if len(e.Services) != 2 || len(e.Services[0].Bindings) != 1 {
		t.Errorf("parsed entity shape wrong: %+v", e)
	}
}

func TestTamperingAgencyCaught(t *testing.T) {
	_, agency, dir := thirdPartySetup(t)
	res, err := agency.Query(&policy.Subject{ID: "p1", Roles: []string{"partner"}}, "be-acme")
	if err != nil {
		t.Fatal(err)
	}
	// The agency rewrites the access point to hijack traffic.
	ap := xmldoc.MustCompilePath("//accessPoint").Select(res.View)
	if len(ap) == 0 {
		t.Fatal("no accessPoint in view")
	}
	ap[0].Children[0].Value = "https://evil.example/intercept"
	if err := res.Verify(dir); err == nil {
		t.Error("tampered access point verified")
	}
}

func TestOmittingAgencyCaught(t *testing.T) {
	_, agency, dir := thirdPartySetup(t)
	res, err := agency.Query(&policy.Subject{ID: "p1", Roles: []string{"partner"}}, "be-acme")
	if err != nil {
		t.Fatal(err)
	}
	// The agency silently drops the shipping service (e.g. to favour a
	// competitor) without disclosing the omission.
	root := res.View.Root
	for i, c := range root.Children {
		if c.Kind == xmldoc.KindElement && c.Name == "businessService" {
			root.Children = append(root.Children[:i], root.Children[i+1:]...)
			break
		}
	}
	if err := res.Verify(dir); err == nil {
		t.Error("silent omission verified: completeness broken")
	}
}

func TestUnknownProviderRejected(t *testing.T) {
	_, agency, _ := thirdPartySetup(t)
	res, err := agency.Query(&policy.Subject{ID: "anyone"}, "be-acme")
	if err != nil {
		t.Fatal(err)
	}
	emptyDir := wsig.NewKeyDirectory()
	if err := res.Verify(emptyDir); err == nil {
		t.Error("result verified with no trusted providers")
	}
}

func TestQueryUnknownKey(t *testing.T) {
	_, agency, _ := thirdPartySetup(t)
	if _, err := agency.Query(nil, "be-ghost"); err == nil {
		t.Error("unknown key accepted")
	}
}

func TestPublishRejectsMalformedEntries(t *testing.T) {
	agency := NewUntrustedAgency(policy.NewBase(nil))
	if err := agency.Publish(SignedEntry{}); err == nil {
		t.Error("empty entry accepted")
	}
	doc := xmldoc.MustParseString("x", `<businessEntity/>`)
	if err := agency.Publish(SignedEntry{Entity: doc}); err == nil {
		t.Error("entry without businessKey accepted")
	}
}

func TestTrustedAgencyBaseline(t *testing.T) {
	base := policy.NewBase(nil)
	base.MustAdd(&policy.Policy{
		Name:    "public",
		Subject: policy.SubjectSpec{IDs: []string{"*"}},
		Object:  policy.ObjectSpec{Doc: DocName("be-acme")},
		Priv:    policy.Read,
		Sign:    policy.Permit,
		Prop:    policy.Cascade,
	})
	agency := NewTrustedAgency(base)
	if err := agency.Publish(sampleEntity()); err != nil {
		t.Fatal(err)
	}
	v, err := agency.Query(&policy.Subject{ID: "anyone"}, "be-acme")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(v.Canonical(), "Acme Logistics") {
		t.Error("trusted agency view incomplete")
	}
	if _, err := agency.Query(&policy.Subject{ID: "x"}, "be-ghost"); err == nil {
		t.Error("unknown key accepted")
	}
}

func TestProviderSignRejectsInvalidEntity(t *testing.T) {
	prov, err := NewProvider("p")
	if err != nil {
		t.Fatal(err)
	}
	bad := sampleEntity()
	bad.Name = ""
	if _, err := prov.Sign(bad); err == nil {
		t.Error("invalid entity signed")
	}
}

// TestRepublishedEntryIsServedAtOnce: the agency's label vectors are
// cached per (entry generation, applicable policies). Publishing an entry
// again must retire every cached answer about it: no requestor, whichever
// identity asked before, may be served the old view or the old summary.
func TestRepublishedEntryIsServedAtOnce(t *testing.T) {
	prov, agency, dir := thirdPartySetup(t)
	requestors := []*policy.Subject{
		{ID: "v1"}, {ID: "v2"},
		{ID: "p1", Roles: []string{"partner"}}, {ID: "p2", Roles: []string{"partner"}},
	}
	ask := func(round int, wantName string, wantSum []byte) {
		t.Helper()
		for _, s := range requestors {
			res, err := agency.Query(s, "be-acme")
			if err != nil {
				t.Fatal(err)
			}
			if err := res.Verify(dir); err != nil {
				t.Fatalf("round %d, %s: %v", round, s.ID, err)
			}
			e, err := res.Entity()
			if err != nil {
				t.Fatal(err)
			}
			if e.Name != wantName || string(res.Summary.Sig.Value) != string(wantSum) {
				t.Fatalf("round %d, %s: served %q with a summary that is not the current one", round, s.ID, e.Name)
			}
			if partner := len(s.Roles) > 0; partner != strings.Contains(res.View.Canonical(), "bindingTemplate") {
				t.Fatalf("round %d, %s: bindings visibility wrong", round, s.ID)
			}
		}
	}
	current, err := prov.Sign(sampleEntity())
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 4; round++ {
		ask(round, current.Entity.Root.Child("name").Text(), current.Summary.Sig.Value)
		ask(round, current.Entity.Root.Child("name").Text(), current.Summary.Sig.Value) // from the cache
		e := sampleEntity()
		e.Name = fmt.Sprintf("Acme, revision %d", round)
		e.Services = e.Services[:1+round%len(e.Services)] // the node count changes too
		if current, err = prov.Sign(e); err != nil {
			t.Fatal(err)
		}
		if err := agency.Publish(current); err != nil {
			t.Fatal(err)
		}
	}
	if st := agency.CacheStats().Labels; st.Hits == 0 || st.Misses > 2*5 {
		t.Errorf("labels cache: %+v; want hits, and at most one miss per role class and revision", st)
	}
}
