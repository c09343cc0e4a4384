// Integration tests: end-to-end scenarios crossing module boundaries the
// way the paper's architecture does — provider → discovery agency →
// requestor over HTTP with verification; owner → broadcast encryption →
// subscriber; database → privacy → inference → audit; and the full
// semantic stack under a changing security situation.
package webdbsec

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"

	"webdbsec/internal/accessctl"
	"webdbsec/internal/authorx"
	"webdbsec/internal/core"
	"webdbsec/internal/inference"
	"webdbsec/internal/keymgmt"
	"webdbsec/internal/mining"
	"webdbsec/internal/policy"
	"webdbsec/internal/privacy"
	"webdbsec/internal/rdf"
	"webdbsec/internal/reldb"
	"webdbsec/internal/synth"
	"webdbsec/internal/sysr"
	"webdbsec/internal/uddi"
	"webdbsec/internal/wsa"
	"webdbsec/internal/wsig"
	"webdbsec/internal/xmldoc"
)

// TestIntegrationThirdPartyUDDIOverHTTP: provider signs entries, untrusted
// agency serves them over the envelope protocol, requestors with different
// roles get different VERIFIED views, and a tampering agency is caught end
// to end.
func TestIntegrationThirdPartyUDDIOverHTTP(t *testing.T) {
	prov, err := uddi.NewProvider("acme-provider")
	if err != nil {
		t.Fatal(err)
	}
	base := policy.NewBase(nil)
	base.MustAdd(&policy.Policy{
		Name:    "public",
		Subject: policy.SubjectSpec{IDs: []string{"*"}},
		Object:  policy.ObjectSpec{Doc: "*"},
		Priv:    policy.Read, Sign: policy.Permit, Prop: policy.Cascade,
	})
	base.MustAdd(&policy.Policy{
		Name:    "bindings-partners",
		Subject: policy.SubjectSpec{NotRoles: []string{"partner"}},
		Object:  policy.ObjectSpec{Doc: "*", Path: "//bindingTemplate"},
		Priv:    policy.Read, Sign: policy.Deny, Prop: policy.Cascade,
	})
	agency := uddi.NewUntrustedAgency(base)
	for i := 0; i < 10; i++ {
		e := synth.Entity(entityKey(i), "logistics", 2)
		entry, err := prov.Sign(e)
		if err != nil {
			t.Fatal(err)
		}
		if err := agency.Publish(entry); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(&wsa.RegistryServer{Registry: uddi.NewRegistry(nil), Agency: agency})
	defer ts.Close()

	dir := wsig.NewKeyDirectory()
	dir.RegisterSigner(prov.Signer())

	ctx := context.Background()
	visitor := &wsa.Client{Endpoint: ts.URL, Sender: "v"}
	res, err := visitor.QueryAuthenticated(ctx, entityKey(3), dir)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(res.View.Canonical(), "bindingTemplate") {
		t.Error("visitor sees bindings")
	}
	partner := &wsa.Client{Endpoint: ts.URL, Sender: "p", Roles: []string{"partner"}}
	res, err = partner.QueryAuthenticated(ctx, entityKey(3), dir)
	if err != nil {
		t.Fatal(err)
	}
	e, err := res.Entity()
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Services) != 2 || len(e.Services[0].Bindings) != 1 {
		t.Errorf("partner entity shape: %+v", e)
	}
}

func entityKey(i int) string {
	return "be-0000" + string(rune('0'+i))
}

// TestIntegrationKeyServiceClosesTheLoop: the requestor has NO out-of-band
// provider key; it locates the key through the XKMS-style key service,
// builds its directory from it, and verifies an untrusted agency's answer.
// After the provider revokes its key, a fresh requestor no longer accepts
// answers signed with it.
func TestIntegrationKeyServiceClosesTheLoop(t *testing.T) {
	prov, err := uddi.NewProvider("acme-provider")
	if err != nil {
		t.Fatal(err)
	}
	// Provider registers its verification key with the key service.
	ks := keymgmt.NewService()
	if err := ks.Register("acme", "acme-provider", prov.Signer().PublicKey()); err != nil {
		t.Fatal(err)
	}
	// Untrusted agency hosts the signed entry.
	base := policy.NewBase(nil)
	base.MustAdd(&policy.Policy{
		Name:    "public",
		Subject: policy.SubjectSpec{IDs: []string{"*"}},
		Object:  policy.ObjectSpec{Doc: "*"},
		Priv:    policy.Read, Sign: policy.Permit, Prop: policy.Cascade,
	})
	agency := uddi.NewUntrustedAgency(base)
	entry, err := prov.Sign(synth.Entity("be-key-demo", "finance", 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := agency.Publish(entry); err != nil {
		t.Fatal(err)
	}
	// Requestor: locate key -> build directory -> query -> verify.
	dir := ks.Directory("acme-provider")
	res, err := agency.Query(&policy.Subject{ID: "r"}, "be-key-demo")
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verify(dir); err != nil {
		t.Fatalf("verification via key service failed: %v", err)
	}
	// Provider revokes; fresh requestors reject.
	if err := ks.Revoke("acme", "acme-provider"); err != nil {
		t.Fatal(err)
	}
	freshDir := ks.Directory("acme-provider")
	if err := res.Verify(freshDir); err == nil {
		t.Error("answer verified against a revoked key binding")
	}
}

// TestIntegrationBroadcastEqualsTrustedViews: for a mixed policy base and
// several subjects, the Author-X encrypted broadcast decrypts to exactly
// the view a trusted server would compute — subject by subject.
func TestIntegrationBroadcastEqualsTrustedViews(t *testing.T) {
	store := xmldoc.NewStore()
	doc := synth.Hospital(99, 30)
	store.Put(doc)
	base := policy.NewBase(nil)
	base.MustAdd(&policy.Policy{
		Name: "staff", Subject: policy.SubjectSpec{Roles: []string{"staff"}},
		Object: policy.ObjectSpec{Doc: doc.Name},
		Priv:   policy.Read, Sign: policy.Permit, Prop: policy.Cascade,
	})
	base.MustAdd(&policy.Policy{
		Name: "no-ssn", Subject: policy.SubjectSpec{NotRoles: []string{"hr"}},
		Object: policy.ObjectSpec{Doc: doc.Name, Path: "//ssn"},
		Priv:   policy.Read, Sign: policy.Deny, Prop: policy.Cascade,
	})
	base.MustAdd(&policy.Policy{
		Name: "hr-ssn", Subject: policy.SubjectSpec{Roles: []string{"hr"}},
		Object: policy.ObjectSpec{Doc: doc.Name, Path: "//ssn"},
		Priv:   policy.Read, Sign: policy.Permit, Prop: policy.Cascade,
	})
	eng := accessctl.NewEngine(store, base)
	pub := authorx.NewPublisher(eng)
	diss := authorx.NewDissemination(pub)
	subjects := []*policy.Subject{
		{ID: "n1", Roles: []string{"staff"}},
		{ID: "h1", Roles: []string{"staff", "hr"}},
		{ID: "x1"},
	}
	for _, s := range subjects {
		diss.Subscribe(s)
	}
	dels, err := diss.Push(doc.Name)
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string]authorx.Delivery{}
	for _, d := range dels {
		byID[d.SubjectID] = d
	}
	for _, s := range subjects {
		got, err := byID[s.ID].Open()
		if err != nil {
			t.Fatalf("%s: %v", s.ID, err)
		}
		want := eng.View(doc.Name, s, policy.Read)
		switch {
		case want == nil && got != nil:
			t.Errorf("%s: broadcast over-grants", s.ID)
		case want != nil && got == nil:
			t.Errorf("%s: broadcast under-grants", s.ID)
		case want != nil && got != nil && want.Canonical() != got.Canonical():
			t.Errorf("%s: broadcast view differs from trusted view", s.ID)
		}
	}
}

// TestIntegrationStatisticalPrivacyPipeline: researchers mine aggregates
// and patterns from a medical table; privacy constraints and the inference
// controller gate what leaves, and the audit chain stays intact.
func TestIntegrationStatisticalPrivacyPipeline(t *testing.T) {
	w := core.NewSecureWebDB(core.Config{})
	dba := &policy.Subject{ID: "dba"}
	if err := w.DB().CreateTable(dba, "CREATE TABLE patients (name TEXT, zip TEXT, age INT, disease TEXT)"); err != nil {
		t.Fatal(err)
	}
	people := synth.People(5, 300)
	for _, p := range people {
		if _, err := w.DB().Exec(dba, "INSERT INTO patients VALUES ('"+p.Name+"', '"+p.Zip+"', "+itoa(p.Age)+", '"+p.Disease+"')"); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.DB().Grants().Grant("dba", "res", sysr.Select, "patients", false); err != nil {
		t.Fatal(err)
	}
	pred := reldb.MustParse("SELECT * FROM patients WHERE age >= 0").(*reldb.SelectStmt).Where
	w.DB().AddRowPolicy(&reldb.RowPolicy{
		Name: "res-all", Table: "patients",
		Subject: policy.SubjectSpec{Roles: []string{"researcher"}}, Pred: pred,
	})
	w.Privacy().Add(&privacy.Constraint{
		Name: "nd", Attrs: []string{"name", "disease"}, Class: privacy.Private,
	})
	w.Inference().AddRule(&inference.Rule{Name: "reid", Body: []string{"name", "zip"}, Head: "identity"})
	w.Privacy().Add(&privacy.Constraint{
		Name: "id", Attrs: []string{"identity", "disease"}, Class: privacy.Private,
	})
	res := &policy.Subject{ID: "res", Roles: []string{"researcher"}}

	// Aggregates over visible rows work.
	agg, err := w.DB().Exec(res, "SELECT COUNT(*), AVG(age) FROM patients GROUP BY disease")
	if err != nil {
		t.Fatal(err)
	}
	if len(agg.Rows) < 3 {
		t.Errorf("disease groups = %d", len(agg.Rows))
	}
	// Row query with the private combination gets masked.
	out, err := w.Query(res, "SELECT name, disease FROM patients LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	if len(out.MaskedColumns) != 1 {
		t.Errorf("masked = %v", out.MaskedColumns)
	}
	// The inference channel across queries is closed.
	if _, err := w.Query(res, "SELECT name, zip FROM patients LIMIT 5"); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Query(res, "SELECT disease FROM patients LIMIT 5"); err == nil {
		t.Error("inference channel open")
	}
	// Through the pipeline an aggregate is a release of its source
	// attributes: grouping by disease is refused like the column itself.
	if _, err := w.Query(res, "SELECT COUNT(*), AVG(age) FROM patients GROUP BY disease"); err == nil {
		t.Error("inference channel open through an aggregate")
	}
	if _, err := w.Query(res, "SELECT COUNT(*), AVG(age) FROM patients"); err != nil {
		t.Errorf("aggregate over unprotected attributes refused: %v", err)
	}
	if w.Audit().Verify() != -1 {
		t.Error("audit chain broken")
	}
}

// TestIntegrationMinedPatternsGated: mining runs on microdata and the
// privacy controller decides per-requestor which patterns ship.
func TestIntegrationMinedPatternsGated(t *testing.T) {
	people := synth.People(11, 2000)
	// Encode each person as a basket: item 0 = has 'cancer', item 1 =
	// age>=60, item 2 = high income.
	baskets := make([][]int, len(people))
	for i, p := range people {
		var b []int
		if p.Disease == "cancer" || p.Disease == "hiv" {
			b = append(b, 0)
		}
		if p.Age >= 60 {
			b = append(b, 1)
		}
		if p.Income > 150000 {
			b = append(b, 2)
		}
		baskets[i] = b
	}
	patterns := mining.Apriori(baskets, 0.01, 2)
	if len(patterns) == 0 {
		t.Fatal("no patterns")
	}
	names := []string{"serious-disease", "senior", "high-income"}
	pc := privacy.NewController()
	pc.Add(&privacy.Constraint{
		Name: "disease-income", Attrs: []string{"serious-disease", "high-income"},
		Class: privacy.SemiPrivate, NeedToKnow: []string{"actuary"},
	})
	itemName := func(i int) string { return names[i] }
	pub, withheldPub := pc.ReleasePatterns(&policy.Subject{ID: "p"}, patterns, itemName)
	act, withheldAct := pc.ReleasePatterns(&policy.Subject{ID: "a", Roles: []string{"actuary"}}, patterns, itemName)
	if len(withheldAct) != 0 {
		t.Errorf("actuary withheld: %v", withheldAct)
	}
	if len(pub)+len(withheldPub) != len(act) {
		t.Error("pattern accounting broken")
	}
	for _, wp := range withheldPub {
		has0, has2 := false, false
		for _, it := range wp.Items {
			if it == 0 {
				has0 = true
			}
			if it == 2 {
				has2 = true
			}
		}
		if !(has0 && has2) {
			t.Errorf("wrong pattern withheld: %v", wp.Items)
		}
	}
}

// TestIntegrationContextSwitchAcrossStack: the RDF layer's wartime
// classification gates BGP joins through the semantic stack, and the
// situation change declassifies.
func TestIntegrationContextSwitchAcrossStack(t *testing.T) {
	triples := rdf.NewStore()
	triples.AddAll(
		rdf.Triple{S: rdf.NewIRI("unit7"), P: rdf.NewIRI("locatedAt"), O: rdf.NewIRI("grid-42")},
		rdf.Triple{S: rdf.NewIRI("grid-42"), P: rdf.NewIRI("inRegion"), O: rdf.NewIRI("north")},
	)
	guard := rdf.NewGuard(triples)
	guard.AddClassRule(&rdf.ClassRule{
		Name:    "war",
		Pattern: rdf.Pattern{P: rdf.T(rdf.NewIRI("locatedAt"))},
		Level:   rdf.Secret,
		Context: "wartime",
	})
	low := rdf.NewClearance(&policy.Subject{ID: "u"}, rdf.Unclassified)
	whereIsUnit7 := rdf.BGP{
		{S: rdf.T2(rdf.NewIRI("unit7")), P: rdf.T2(rdf.NewIRI("locatedAt")), O: rdf.V("g")},
		{S: rdf.V("g"), P: rdf.T2(rdf.NewIRI("inRegion")), O: rdf.V("r")},
	}
	guard.SetContext("wartime")
	if got := guard.Select(low, whereIsUnit7); len(got) != 0 {
		t.Errorf("wartime join leaked: %v", got)
	}
	guard.SetContext("peacetime")
	got := guard.Select(low, whereIsUnit7)
	if len(got) != 1 || got[0][rdf.Var("r")].Value != "north" {
		t.Errorf("peacetime join = %v", got)
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	neg := i < 0
	if neg {
		i = -i
	}
	var b [20]byte
	pos := len(b)
	for i > 0 {
		pos--
		b[pos] = byte('0' + i%10)
		i /= 10
	}
	if neg {
		pos--
		b[pos] = '-'
	}
	return string(b[pos:])
}
