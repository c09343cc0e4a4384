package decisioncache

import (
	"fmt"
	"math/rand"
	"testing"

	"webdbsec/internal/accessctl"
	"webdbsec/internal/policy"
	"webdbsec/internal/xmldoc"
)

// referenceLabels decides every node by the definition of the model and
// nothing else — no marks, no spreading walk, no index, no cache. For a
// node n, a policy p of the base bears on n when
//
//	p's privilege is the one requested, p's object covers the document,
//	p's subject spec matches the subject, and
//	some node r selected by p's path (the root when it has none) reaches
//	n under p's propagation option;
//
// the distance of that bearing is the number of tree edges from r to n.
// Among the bearings on n the one with the most specific object wins; at
// equal specificity the nearest; at equal distance a denial. n is
// permitted iff a bearing exists and the winning one permits (closed
// system). This is the view definition in the style of Gabillon's logical
// formalisation: a predicate over (subject, node), evaluated pointwise.
func referenceLabels(store *xmldoc.Store, base *policy.Base, doc *xmldoc.Document, s *policy.Subject, priv policy.Privilege) []bool {
	type bearing struct {
		spec, dist int
		sign       policy.Sign
	}
	// reaches reports whether a mark on r extends to n under prop, and at
	// what distance.
	reaches := func(r, n *xmldoc.Node, prop policy.Propagation) (int, bool) {
		if r == n {
			return 0, true
		}
		if r.Kind != xmldoc.KindElement || !r.IsAncestorOf(n) {
			return 0, false
		}
		dist := n.Depth() - r.Depth()
		content := n.Kind != xmldoc.KindElement // attributes and text travel with their element
		switch prop {
		case policy.NoProp:
			return dist, dist == 1 && content
		case policy.FirstLevel:
			return dist, dist == 1 || dist == 2 && content
		default:
			return dist, true
		}
	}
	out := make([]bool, doc.NumNodes())
	for _, n := range doc.Nodes() {
		var best *bearing
		for _, p := range base.All() {
			if p.Priv != priv || !p.Object.AppliesToDoc(store, doc.Name) || !p.Subject.Matches(s, nil) {
				continue
			}
			spec := 0
			switch {
			case p.Object.Doc != "" && p.Object.Doc != "*":
				spec = 2
			case p.Object.Set != "":
				spec = 1
			}
			if p.Object.Path != "" && p.Object.Path != "/" {
				spec += 2
			}
			spec *= 1000
			roots := []*xmldoc.Node{doc.Root}
			if pe := p.PathExpr(); pe != nil {
				spec += pe.Specificity()
				roots = pe.Select(doc)
			}
			for _, r := range roots {
				dist, ok := reaches(r, n, p.Prop)
				if !ok {
					continue
				}
				b := bearing{spec, dist, p.Sign}
				if best == nil || b.spec > best.spec ||
					b.spec == best.spec && (b.dist < best.dist || b.dist == best.dist && b.sign == policy.Deny) {
					best = &b
				}
			}
		}
		out[n.ID()] = best != nil && best.sign == policy.Permit
	}
	return out
}

// refDoc builds a small random document: two element names, a keyed
// attribute policies can select on, text and an extra attribute for the
// content rules to bite on.
func refDoc(rng *rand.Rand, name string) *xmldoc.Document {
	b := xmldoc.NewBuilder(name, "root")
	var fill func(depth int)
	fill = func(depth int) {
		for i := 1 + rng.Intn(3); i > 0; i-- {
			b.Begin([]string{"a", "b"}[rng.Intn(2)])
			b.Attrib("k", fmt.Sprint(rng.Intn(2)))
			if rng.Intn(2) == 0 {
				b.Attrib("note", "n")
			}
			if rng.Intn(2) == 0 {
				b.Text("t")
			}
			if depth < 3 && rng.Intn(2) == 0 {
				fill(depth + 1)
			}
			b.End()
		}
	}
	fill(0)
	return b.Freeze()
}

// refPolicy draws one policy from the whole shape space: who (identities,
// roles, exceptions), what (document, set, wildcard; with and without a
// path), sign and propagation.
func refPolicy(rng *rand.Rand, name string, docs []string) *policy.Policy {
	p := &policy.Policy{
		Name: name,
		Priv: []policy.Privilege{policy.Read, policy.Read, policy.Read, policy.Browse}[rng.Intn(4)],
		Sign: []policy.Sign{policy.Permit, policy.Permit, policy.Deny}[rng.Intn(3)],
		Prop: []policy.Propagation{policy.NoProp, policy.FirstLevel, policy.Cascade}[rng.Intn(3)],
	}
	role := func() string { return fmt.Sprintf("r%d", rng.Intn(3)) }
	switch rng.Intn(5) {
	case 0:
		p.Subject.IDs = []string{fmt.Sprintf("u%d", rng.Intn(6))}
	case 1:
		p.Subject.IDs = []string{"*"}
	case 2:
		p.Subject.Roles = []string{role()}
	case 3:
		p.Subject.NotRoles = []string{role()}
	default:
		p.Subject.Roles = []string{role(), role()}
		p.Subject.NotRoles = []string{role()}
	}
	switch rng.Intn(4) {
	case 0:
		p.Object.Doc = "*"
	case 1:
		p.Object.Set = []string{"s0", "s1"}[rng.Intn(2)]
	default:
		p.Object.Doc = docs[rng.Intn(len(docs))]
	}
	p.Object.Path = []string{"", "", "/", "//a", "//b", "/root/a", "//a[@k='1']", "/root/*/b", "//a/@note", "//b/text()"}[rng.Intn(10)]
	return p
}

// TestLabelsEqualReferenceSemantics: through every kind of mutation that
// can change a decision, the cache, the engine it wraps and the pointwise
// definition agree on every (subject, document) — and the cache holds one
// vector per applicable policy list, not one per asker.
func TestLabelsEqualReferenceSemantics(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		store := xmldoc.NewStore()
		docs := []string{"d0", "d1", "d2"}
		for _, name := range docs {
			store.Put(refDoc(rng, name))
		}
		base := policy.NewBase(nil)
		plain := accessctl.NewEngine(store, base)
		cached := NewEngine(accessctl.NewEngine(store, base), 64) // small: evictions happen too
		var subjects []*policy.Subject
		for id := 0; id < 6; id++ {
			for mask := 0; mask < 8; mask += 1 + rng.Intn(3) {
				s := &policy.Subject{ID: fmt.Sprintf("u%d", id)}
				for r := 0; r < 3; r++ {
					if mask&(1<<r) != 0 {
						s.Roles = append(s.Roles, fmt.Sprintf("r%d", r))
					}
				}
				subjects = append(subjects, s)
			}
		}
		var live []string
		for step := 0; step < 60; step++ {
			switch op := rng.Intn(8); {
			case op < 3:
				p := refPolicy(rng, fmt.Sprintf("p%d", step), docs)
				base.MustAdd(p)
				live = append(live, p.Name)
			case op == 3 && len(live) > 0:
				i := rng.Intn(len(live))
				base.Remove(live[i])
				live = append(live[:i], live[i+1:]...)
			case op == 4:
				store.Put(refDoc(rng, docs[rng.Intn(len(docs))]))
			case op == 5:
				store.AddToSet([]string{"s0", "s1"}[rng.Intn(2)], docs[rng.Intn(len(docs))])
			}
			for _, name := range docs {
				doc, _ := store.Get(name)
				for _, priv := range []policy.Privilege{policy.Read, policy.Browse} {
					// Distinct applicable lists among the subjects = the
					// misses this sweep may cost at most.
					lists := map[string]bool{}
					before := cached.Stats().Labels
					for _, s := range subjects {
						want := referenceLabels(store, base, doc, s, priv)
						if got := plain.Labels(doc, s, priv); !equalLabels(got, want) {
							t.Fatalf("seed %d step %d: accessctl differs from the definition for %s %v on %s (%s)\n got %v\nwant %v", seed, step, s.ID, s.Roles, name, priv, got, want)
						}
						if got := cached.Labels(doc, s, priv); !equalLabels(got, want) {
							t.Fatalf("seed %d step %d: cache differs from the definition for %s %v on %s (%s)\n got %v\nwant %v", seed, step, s.ID, s.Roles, name, priv, got, want)
						}
						_, id := base.ApplicableList(store, name, s, priv)
						lists[id] = true
					}
					after := cached.Stats().Labels
					if misses := int(after.Misses - before.Misses); misses > len(lists) {
						t.Fatalf("seed %d step %d: %d subjects with %d distinct applicable lists cost %d misses", seed, step, len(subjects), len(lists), misses)
					}
				}
			}
		}
	}
}

// TestKeyIsTheApplicableList pins both directions of the key: identities
// the base cannot tell apart share one entry; the same roles with a
// different applicable list do not.
func TestKeyIsTheApplicableList(t *testing.T) {
	store := xmldoc.NewStore()
	store.Put(hospitalDoc("h.xml", 8, 0))
	doc, _ := store.Get("h.xml")
	base := policy.NewBase(nil)
	base.MustAdd(wardPolicy("w0", "staff", 0, policy.Permit))
	base.MustAdd(&policy.Policy{
		Name:    "not-for-mallory",
		Subject: policy.SubjectSpec{IDs: []string{"mallory"}},
		Object:  policy.ObjectSpec{Doc: "h.xml", Path: "/hospital/patient[@ward='0']/name"},
		Priv:    policy.Read, Sign: policy.Deny, Prop: policy.Cascade,
	})
	cached := NewEngine(accessctl.NewEngine(store, base), 64)

	alice := &policy.Subject{ID: "alice", Roles: []string{"staff"}}
	bob := &policy.Subject{ID: "bob", Roles: []string{"staff", "staff"}}
	mallory := &policy.Subject{ID: "mallory", Roles: []string{"staff"}}

	la := cached.Labels(doc, alice, policy.Read)
	if st := cached.Stats().Labels; st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("first decision: %+v", st)
	}
	lb := cached.Labels(doc, bob, policy.Read)
	if st := cached.Stats().Labels; st.Misses != 1 || st.Hits != 1 || cached.labels.Len() != 1 {
		t.Fatalf("a second identity with the same applicable list did not share the entry: %+v, %d entries", st, cached.labels.Len())
	}
	if !equalLabels(la, lb) {
		t.Fatal("shared entry, different answers")
	}
	lm := cached.Labels(doc, mallory, policy.Read)
	if st := cached.Stats().Labels; st.Misses != 2 || cached.labels.Len() != 2 {
		t.Fatalf("same roles, different applicable list: must be an entry of its own: %+v, %d entries", st, cached.labels.Len())
	}
	if equalLabels(la, lm) {
		t.Fatal("the identity-specific denial did not reach mallory")
	}
	if !equalLabels(lm, referenceLabels(store, base, doc, mallory, policy.Read)) ||
		!equalLabels(la, referenceLabels(store, base, doc, alice, policy.Read)) {
		t.Fatal("cached answers differ from the definition")
	}
	// Views share on the same terms.
	va, vb := cached.View("h.xml", alice, policy.Read), cached.View("h.xml", bob, policy.Read)
	if va != vb {
		t.Fatal("two identities with one applicable list got two view objects")
	}
	if vm := cached.View("h.xml", mallory, policy.Read); equalViews(va, vm) {
		t.Fatal("mallory shares alice's view")
	}
}
