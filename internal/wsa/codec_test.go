package wsa

import (
	"context"
	"encoding/hex"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"webdbsec/internal/merkle"
	"webdbsec/internal/policy"
	"webdbsec/internal/uddi"
	"webdbsec/internal/wsig"
	"webdbsec/internal/xmldoc"
)

// --- Reference codec ---------------------------------------------------
//
// refEncodeEnvelope, refEncodeAuthenticated and refDecodeEnvelope are the
// codec this package had before it wrote bytes directly and detached
// subtrees in place, kept verbatim: build a tree, print it, splice strings,
// parse the result again. The wire format is defined as what they produce
// and accept; the tests below hold the one-pass codec to it. The decoder
// parses with refParse, the encoding/xml reader xmldoc had before its own.

// refParse is xmldoc's former encoding/xml reader (xmldoc's tests keep the
// same reference).
func refParse(docName string, r io.Reader) (*xmldoc.Document, error) {
	dec := xml.NewDecoder(r)
	var b *xmldoc.Builder
	depth := 0
	for {
		tok, err := dec.Token()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmldoc: parse %s: %w", docName, err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if b == nil {
				b = xmldoc.NewBuilder(docName, t.Name.Local)
			} else {
				b.Begin(t.Name.Local)
			}
			for _, a := range t.Attr {
				if a.Name.Space == "xmlns" || a.Name.Local == "xmlns" {
					continue
				}
				b.Attrib(a.Name.Local, a.Value)
			}
			depth++
		case xml.EndElement:
			depth--
			if depth > 0 {
				b.End()
			}
		case xml.CharData:
			if b == nil || depth == 0 {
				continue
			}
			s := string(t)
			if strings.TrimSpace(s) == "" {
				continue
			}
			b.Text(s)
		}
	}
	if b == nil {
		return nil, fmt.Errorf("xmldoc: parse %s: no root element", docName)
	}
	return b.Freeze(), nil
}

// refDivergent reports whether encoding/xml reads in wire what xmldoc
// refuses on purpose: a <! declaration, a second root element, an
// attribute name repeated once prefixes are dropped, a kept name whose part
// after the prefix is not a name, or nesting deeper than xmldoc.MaxDepth.
func refDivergent(wire string) bool {
	isName := func(s string) bool {
		_, err := xml.NewDecoder(strings.NewReader("<" + s + "/>")).Token()
		return err == nil
	}
	dec := xml.NewDecoder(strings.NewReader(wire))
	depth, roots := 0, 0
	for {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		switch t := tok.(type) {
		case xml.Directive:
			return true
		case xml.StartElement:
			if depth == 0 {
				roots++
			}
			if depth++; roots > 1 || depth > xmldoc.MaxDepth || !isName(t.Name.Local) {
				return true
			}
			seen := map[string]bool{}
			for _, a := range t.Attr {
				if a.Name.Space != "xmlns" && a.Name.Local != "xmlns" {
					if seen[a.Name.Local] || !isName(a.Name.Local) {
						return true
					}
					seen[a.Name.Local] = true
				}
			}
		case xml.EndElement:
			depth--
		}
	}
}

func refEncodeEnvelope(e *Envelope) string {
	b := xmldoc.NewBuilder("envelope", "envelope")
	b.Begin("header")
	b.Element("operation", e.Operation)
	if e.Sender != "" {
		b.Element("sender", e.Sender)
	}
	for _, r := range e.Roles {
		b.Element("role", r)
	}
	b.End()
	b.Begin("body")
	if e.Fault != "" {
		b.Element("fault", e.Fault)
	}
	b.End()
	d := b.Freeze()
	s := d.Canonical()
	if e.Body != nil {
		inner := e.Body.Canonical()
		s = strings.Replace(s, "<body>", "<body>"+inner, 1)
	}
	return s
}

func refEncodeAuthenticated(res *uddi.AuthenticatedResult) *xmldoc.Document {
	b := xmldoc.NewBuilder("resp", "authenticatedResult")
	b.Begin("summary").
		Attrib("signer", res.Summary.Sig.Signer).
		Attrib("value", hex.EncodeToString(res.Summary.Sig.Value)).
		End()
	b.Begin("proof")
	for _, ep := range res.Proof.Elems {
		b.Begin("element")
		for _, m := range ep.Missing {
			b.Begin("missing").
				Attrib("pos", strconv.Itoa(m.Pos)).
				Attrib("hash", hex.EncodeToString(m.Hash)).
				End()
		}
		b.End()
	}
	b.End()
	d := b.Freeze()
	viewXML := "<view>" + res.View.Canonical() + "</view>"
	full := d.Canonical()
	full = full[:len(full)-len("</authenticatedResult>")] + viewXML + "</authenticatedResult>"
	out, err := xmldoc.ParseString("resp", full)
	if err != nil {
		return d
	}
	return out
}

func refDecodeEnvelope(r io.Reader) (*Envelope, error) {
	d, err := refParse("envelope", r)
	if err != nil {
		return nil, fmt.Errorf("wsa: %w", err)
	}
	if d.Root.Name != "envelope" {
		return nil, fmt.Errorf("wsa: root element %q, want envelope", d.Root.Name)
	}
	e := &Envelope{}
	if h := d.Root.Child("header"); h != nil {
		if op := h.Child("operation"); op != nil {
			e.Operation = op.Text()
		}
		if sd := h.Child("sender"); sd != nil {
			e.Sender = sd.Text()
		}
		for _, c := range h.ElementChildren() {
			if c.Name == "role" {
				e.Roles = append(e.Roles, c.Text())
			}
		}
	}
	if body := d.Root.Child("body"); body != nil {
		if f := body.Child("fault"); f != nil {
			e.Fault = f.Text()
		}
		for _, c := range body.ElementChildren() {
			if c.Name == "fault" {
				continue
			}
			sub, err := refParse("body", strings.NewReader(xmldoc.CanonicalSubtree(c)))
			if err != nil {
				return nil, fmt.Errorf("wsa: body payload: %w", err)
			}
			e.Body = sub
			break
		}
	}
	if e.Operation == "" && e.Fault == "" {
		return nil, fmt.Errorf("wsa: envelope missing operation")
	}
	return e, nil
}

// refReply is the parent's query_authenticated reply.
func refReply(res *uddi.AuthenticatedResult) string {
	return refEncodeEnvelope(&Envelope{Operation: "query_authenticated", Body: refEncodeAuthenticated(res)})
}

// --- Generators --------------------------------------------------------

// hostile is what an escaper must get right, in text and attribute values
// alike. No carriage return and nothing whitespace-only: the parser does
// not hand those back as written, so no codec can round-trip them and the
// reference's own second parse rewrote them.
var hostile = []string{
	`plain`, `a&b`, `<tag>`, `x>y`, `"quoted"`, `it's`, "two\nlines", `]]>`, `&amp;`, `é∑`, ` padded `, `a="1"`,
}

func pick(r *rand.Rand) string { return hostile[r.Intn(len(hostile))] }

// genDoc builds a random document whose strings are drawn from hostile.
func genDoc(r *rand.Rand, name string) *xmldoc.Document {
	b := xmldoc.NewBuilder(name, "payload")
	var fill func(depth int)
	fill = func(depth int) {
		for _, a := range []string{"zz", "id", "key", "a"}[r.Intn(4):] {
			b.Attrib(a, pick(r))
		}
		for i := r.Intn(4); i > 0; i-- {
			if depth < 3 && r.Intn(2) == 0 {
				b.Begin([]string{"item", "part"}[r.Intn(2)])
				fill(depth + 1)
				b.End()
			} else {
				b.Element("leaf", pick(r))
			}
		}
	}
	fill(0)
	return b.Freeze()
}

// genResult prunes a random document at random and dresses the view as an
// authenticated result. The signature is random bytes: these results are
// for the codec, not for Verify.
func genResult(r *rand.Rand) *uddi.AuthenticatedResult {
	for {
		doc := genDoc(r, "entry")
		view, proof := merkle.PruneWithProof(doc, func(*xmldoc.Node) bool { return r.Intn(3) > 0 })
		if view == nil {
			continue
		}
		sig := make([]byte, 64)
		r.Read(sig)
		return &uddi.AuthenticatedResult{View: view, Proof: proof,
			Summary: merkle.SummarySignature{Sig: wsig.Signature{Signer: pick(r), Value: sig}}}
	}
}

// --- Wire identity -----------------------------------------------------

func TestEnvelopeBytesEqualTreeEncoder(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	for i := 0; i < 500; i++ {
		e := &Envelope{Operation: pick(r)}
		if r.Intn(2) == 0 {
			e.Sender = pick(r)
		}
		for n := r.Intn(3); n > 0; n-- {
			e.Roles = append(e.Roles, pick(r))
		}
		if r.Intn(4) > 0 {
			e.Body = genDoc(r, "b")
		}
		if r.Intn(4) == 0 {
			e.Fault = pick(r)
		}
		if r.Intn(10) == 0 {
			e.Operation = ""
		}
		if got, want := e.Encode(), refEncodeEnvelope(e); got != want {
			t.Fatalf("envelope %d:\n got %q\nwant %q", i, got, want)
		}
	}
}

func TestAuthenticatedBytesEqualTreeEncoder(t *testing.T) {
	t.Run("demo registry", func(t *testing.T) {
		agency, _ := demoAgency(t, 200)
		subjects := []*policy.Subject{
			{ID: "req-01", Roles: []string{"partner"}},
			{ID: "req-02"},
		}
		for i := 0; i < 200; i++ {
			for _, s := range subjects {
				res, err := agency.Query(s, demoKey(i))
				if err != nil {
					t.Fatal(err)
				}
				if got, want := string(authenticatedReply("query_authenticated", res)), refReply(res); got != want {
					t.Fatalf("entry %d for %s:\n got %q\nwant %q", i, s.ID, got, want)
				}
			}
		}
	})
	t.Run("generated", func(t *testing.T) {
		r := rand.New(rand.NewSource(4))
		for i := 0; i < 500; i++ {
			res := genResult(r)
			if got, want := string(authenticatedReply("query_authenticated", res)), refReply(res); got != want {
				t.Fatalf("result %d:\n got %q\nwant %q", i, got, want)
			}
		}
	})
}

// TestGeneratedResultsSurviveTheWire: what the requestor decodes is, node
// for node and hash for hash, what the agency encoded.
func TestGeneratedResultsSurviveTheWire(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 300; i++ {
		res := genResult(r)
		got := clientDecode(t, string(authenticatedReply("query_authenticated", res)))
		if got.View.Canonical() != res.View.Canonical() || got.View.NumNodes() != res.View.NumNodes() {
			t.Fatalf("result %d: view changed on the wire", i)
		}
		if got.Summary.Sig.Signer != res.Summary.Sig.Signer || string(got.Summary.Sig.Value) != string(res.Summary.Sig.Value) {
			t.Fatalf("result %d: summary changed on the wire", i)
		}
		if !merkle.Equal(merkle.DocumentHash(got.View), merkle.DocumentHash(res.View)) {
			t.Fatalf("result %d: view hashes differently after the wire", i)
		}
		if len(got.Proof.Elems) != len(res.Proof.Elems) {
			t.Fatalf("result %d: proof has %d elements, want %d", i, len(got.Proof.Elems), len(res.Proof.Elems))
		}
		for j, ep := range res.Proof.Elems {
			if len(got.Proof.Elems[j].Missing) != len(ep.Missing) {
				t.Fatalf("result %d element %d: missing count changed", i, j)
			}
			for k, m := range ep.Missing {
				g := got.Proof.Elems[j].Missing[k]
				if g.Pos != m.Pos || !merkle.Equal(g.Hash, m.Hash) {
					t.Fatalf("result %d element %d: auxiliary hash %d changed", i, j, k)
				}
			}
		}
	}
}

// --- The two errors the tree codec swallowed ---------------------------

// TestHostileStringsVerifyEndToEnd: every string the provider controls may
// carry markup characters. The tree codec re-parsed what it had printed
// and, when that failed, answered 200 with the view left out.
func TestHostileStringsVerifyEndToEnd(t *testing.T) {
	const nasty = "a \"q\" <b> & 'c' >\nd"
	prov, err := uddi.NewProvider("signer " + nasty)
	if err != nil {
		t.Fatal(err)
	}
	key := "be " + nasty
	entity := &uddi.BusinessEntity{
		BusinessKey: key,
		Name:        "name " + nasty,
		Description: "description " + nasty,
		CategoryBag: []uddi.KeyedReference{{TModelKey: "tm " + nasty, KeyName: "kn " + nasty, KeyValue: "kv " + nasty}},
		Services: []uddi.BusinessService{{
			ServiceKey: "svc " + nasty,
			Name:       "service " + nasty,
			Bindings:   []uddi.BindingTemplate{{BindingKey: "bind " + nasty, AccessPoint: "https://x.example/?a=1&b=<2>"}},
		}},
	}
	base := policy.NewBase(nil)
	base.MustAdd(&policy.Policy{
		Name:    "public",
		Subject: policy.SubjectSpec{IDs: []string{"*"}},
		Object:  policy.ObjectSpec{Doc: "*"},
		Priv:    policy.Read, Sign: policy.Permit, Prop: policy.Cascade,
	})
	base.MustAdd(&policy.Policy{
		Name:    "hide-bindings",
		Subject: policy.SubjectSpec{NotRoles: []string{"partner"}},
		Object:  policy.ObjectSpec{Doc: "*", Path: "//bindingTemplate"},
		Priv:    policy.Read, Sign: policy.Deny, Prop: policy.Cascade,
	})
	agency := uddi.NewUntrustedAgency(base)
	entry, err := prov.Sign(entity)
	if err != nil {
		t.Fatal(err)
	}
	if err := agency.Publish(entry); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(&RegistryServer{Registry: uddi.NewRegistry(nil), Agency: agency})
	defer ts.Close()
	dir := wsig.NewKeyDirectory()
	dir.RegisterSigner(prov.Signer())

	for _, c := range []*Client{
		{Endpoint: ts.URL, Sender: "visitor " + nasty},
		{Endpoint: ts.URL, Sender: "p1", Roles: []string{"partner"}},
	} {
		res, err := c.QueryAuthenticated(context.Background(), key, dir)
		if err != nil {
			t.Fatalf("%s: %v", c.Sender, err)
		}
		got, err := res.Entity()
		if err != nil {
			t.Fatal(err)
		}
		if got.BusinessKey != key || got.Name != entity.Name || got.Description != entity.Description ||
			got.CategoryBag[0] != entity.CategoryBag[0] || got.Services[0].Name != entity.Services[0].Name {
			t.Fatalf("%s: entity changed on the way: %+v", c.Sender, got)
		}
		if partner := len(c.Roles) > 0; partner != (len(got.Services[0].Bindings) == 1) {
			t.Fatalf("%s: %d bindings visible", c.Sender, len(got.Services[0].Bindings))
		}
	}
}

// TestBusinessDetailIsIndexed: the businessDetail document must be what a
// parse of its own serialisation is — the tree codec's reindex could fail
// and leave it with a one-node table.
func TestBusinessDetailIsIndexed(t *testing.T) {
	second := acmeEntity()
	second.BusinessKey, second.Name = "be-<2>", `Second & "Co"`
	second.Services[0].ServiceKey = "svc-<2>"
	second.Services[0].Bindings[0].BindingKey = "b-&2"
	second.Contacts = []uddi.Contact{{Name: "ops", Email: "ops@two.example"}}
	doc := businessDetail([]*uddi.BusinessEntity{acmeEntity(), second})
	fresh, err := xmldoc.ParseString("resp", doc.Canonical())
	if err != nil {
		t.Fatal(err)
	}
	if doc.NumNodes() != fresh.NumNodes() || doc.NumNodes() < 30 || doc.Canonical() != fresh.Canonical() {
		t.Fatalf("businessDetail has %d nodes, a parse of its serialisation %d", doc.NumNodes(), fresh.NumNodes())
	}
	for id, n := range doc.Nodes() {
		f := fresh.NodeByID(id)
		if n.ID() != id || n.Kind != f.Kind || n.Name != f.Name || n.Value != f.Value || n.Document() != doc {
			t.Fatalf("node %d = %v %q %q (id %d), fresh parse has %v %q %q", id, n.Kind, n.Name, n.Value, n.ID(), f.Kind, f.Name, f.Value)
		}
	}

	// And over HTTP both entities come back whole.
	ts, _ := newServer(t)
	ctx := context.Background()
	pub := &Client{Endpoint: ts.URL, Sender: "pub"}
	for _, e := range []*uddi.BusinessEntity{acmeEntity(), second} {
		if err := pub.SaveBusiness(ctx, e); err != nil {
			t.Fatal(err)
		}
	}
	ents, err := pub.GetBusinessDetail(ctx, "be-acme", "be-<2>")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 2 || ents[0].Name != "Acme Logistics" || ents[1].Name != second.Name ||
		len(ents[1].Services) != 1 || len(ents[1].Contacts) != 1 {
		t.Fatalf("detail = %+v", ents)
	}
}

// --- Decode ------------------------------------------------------------

// FuzzDecodeEnvelope: DecodeEnvelope never panics, and whatever the
// print-and-parse decoder accepted it accepts, with the same header and a
// body that serialises identically — unless the input is one xmldoc
// refuses on purpose.
func FuzzDecodeEnvelope(f *testing.F) {
	r := rand.New(rand.NewSource(1))
	f.Add((&Envelope{Operation: "find_business", Sender: "s", Roles: []string{"a", "b"}, Body: genDoc(r, "b")}).Encode())
	f.Add(string(authenticatedReply("query_authenticated", genResult(r))))
	f.Add((&Envelope{Fault: "no"}).Encode())
	f.Add(`<envelope><header><operation>op</operation></header><body>t<x a="&#13;">a<![CDATA[ b ]]><!-- c -->&#13;&#10;d<y/> </x><z/></body></envelope>`)
	f.Add(`<envelope xmlns:n="u"><header><operation>o</operation></header><body><fault>f</fault><n:p n:id="1" id="2" idref="1 2"/></body></envelope>`)
	f.Add(`<a/><envelope/>`)
	f.Add(`<envelope><header><operation>o</operation></header></envelope><envelope/>`)
	f.Add(`<!DOCTYPE envelope><envelope><header><operation>o</operation></header><body><p a="1" n:a="2"/></body></envelope>`)
	f.Fuzz(func(t *testing.T, wire string) {
		got, err := DecodeEnvelope(strings.NewReader(wire))
		want, refErr := refDecodeEnvelope(strings.NewReader(wire))
		if refErr != nil || err != nil && refDivergent(wire) {
			return
		}
		if err != nil {
			t.Fatalf("reference accepts, DecodeEnvelope refuses: %v", err)
		}
		if got.Operation != want.Operation || got.Sender != want.Sender || got.Fault != want.Fault ||
			strings.Join(got.Roles, "\x00") != strings.Join(want.Roles, "\x00") {
			t.Fatalf("header differs: %+v, reference %+v", got, want)
		}
		if (got.Body == nil) != (want.Body == nil) {
			t.Fatalf("body present %v, reference %v", got.Body != nil, want.Body != nil)
		}
		if got.Body != nil && (got.Body.Canonical() != want.Body.Canonical() || got.Body.NumNodes() != want.Body.NumNodes()) {
			t.Fatalf("body differs:\n got %q\nwant %q", got.Body.Canonical(), want.Body.Canonical())
		}
	})
}

// --- Complexity guards -------------------------------------------------

// TestInquiryAllocations pins the inquiry path's allocation counts — a
// second parse, a tree built to be printed or a token-stream parser shows
// up here as tens or hundreds, whatever the machine. The tree codec read
// 464 / 972 / 50; over encoding/xml the two decodes read 418 and 83.
func TestInquiryAllocations(t *testing.T) {
	agency, dir := demoAgency(t, 5)
	res, err := agency.Query(&policy.Subject{ID: "visitor"}, demoKey(3))
	if err != nil {
		t.Fatal(err)
	}
	request := inquiry("visitor", nil, demoKey(3))
	reply := string(authenticatedReply("query_authenticated", res))
	decoded := clientDecode(t, reply)
	if err := decoded.Verify(dir); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		max  float64
		f    func()
	}{
		{"server decode", 18, func() {
			if _, err := DecodeEnvelope(strings.NewReader(request)); err != nil {
				t.Fatal(err)
			}
		}},
		{"encode an authenticated reply", 60, func() { authenticatedReply("query_authenticated", res) }},
		{"requestor decode", 32, func() { clientDecode(t, reply) }},
		{"verify a remembered signature", 15, func() {
			if err := decoded.Verify(dir); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		if got := testing.AllocsPerRun(50, c.f); got > c.max {
			t.Errorf("%s: %.0f allocations, want at most %.0f", c.name, got, c.max)
		}
	}
}
