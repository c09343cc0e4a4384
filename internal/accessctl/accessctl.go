// Package accessctl is the access control engine: it evaluates the policy
// base of internal/policy against graph-structured documents and computes
// the pruned views the Author-X model [5] delivers to subjects ("algorithms
// for access control as well as computing views of the results", §3.2).
//
// The view computation is the classical Author-X labeled traversal:
//
//  1. every applicable policy marks the nodes its object path selects,
//     with a specificity derived from the object granularity;
//  2. marks propagate down the tree according to the policy's propagation
//     option, losing strength with distance;
//  3. each node's final label is decided by the strongest mark, denials
//     winning ties; unlabeled nodes are denied (closed system);
//  4. the view is the source document pruned to permitted nodes.
package accessctl

import (
	"webdbsec/internal/policy"
	"webdbsec/internal/xmldoc"
)

// Engine evaluates access decisions over a document store.
type Engine struct {
	store *xmldoc.Store
	base  *policy.Base
}

// NewEngine returns an engine over the given store and policy base.
func NewEngine(store *xmldoc.Store, base *policy.Base) *Engine {
	return &Engine{store: store, base: base}
}

// Store returns the engine's document store.
func (e *Engine) Store() *xmldoc.Store { return e.store }

// Base returns the engine's policy base.
func (e *Engine) Base() *policy.Base { return e.base }

// mark is one (possibly propagated) authorization label on a node.
type mark struct {
	sign policy.Sign
	// spec is the object-spec specificity of the originating policy.
	spec int
	// dist is the propagation distance from the explicitly matched node
	// (0 = explicit). Closer marks are stronger.
	dist int
}

// stronger reports whether a beats b. Higher specificity wins; then
// smaller distance; then Deny beats Permit (denials take precedence).
func stronger(a, b mark) bool {
	if a.spec != b.spec {
		return a.spec > b.spec
	}
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	return a.sign == policy.Deny && b.sign == policy.Permit
}

// Labels computes the per-node decision vector for a subject requesting
// priv on the document: out[id] is true iff node id is permitted.
func (e *Engine) Labels(doc *xmldoc.Document, s *policy.Subject, priv policy.Privilege) []bool {
	return LabelsUnder(doc, e.base.Applicable(e.store, doc.Name, s, priv))
}

// LabelsUnder is the labeled traversal proper: the decision vector the
// applicable policies (Base.Applicable's answer for a subject, privilege
// and this document) give the document's nodes. The subject enters a
// decision only through that list, so callers that already hold it — the
// decision cache keys on it — evaluate it once.
func LabelsUnder(doc *xmldoc.Document, applicable []*policy.Policy) []bool {
	marks := make([]mark, doc.NumNodes())
	marked := make([]bool, doc.NumNodes())

	apply := func(id int, m mark) {
		if !marked[id] || stronger(m, marks[id]) {
			marks[id] = m
			marked[id] = true
		}
	}

	for _, p := range applicable {
		spec := objectSpecificity(p)
		var roots []*xmldoc.Node
		if pe := p.PathExpr(); pe != nil {
			roots = pe.Select(doc)
		} else {
			roots = []*xmldoc.Node{doc.Root}
		}
		for _, n := range roots {
			apply(n.ID(), mark{sign: p.Sign, spec: spec, dist: 0})
			// Attributes and text always travel with their element for
			// whole-element marks.
			spread(n, p.Prop, func(m *xmldoc.Node, dist int) {
				apply(m.ID(), mark{sign: p.Sign, spec: spec, dist: dist})
			})
		}
	}

	out := make([]bool, doc.NumNodes())
	for id := range out {
		out[id] = marked[id] && marks[id].sign == policy.Permit
	}
	return out
}

// objectSpecificity ranks the policy's object spec: path-level > doc-level
// > set-level > wildcard; among path-level policies, the more precise path
// (more fixed steps and predicates) is more specific — so a permit on
// /hospital/patient[@ward='3']/ssn overrides a blanket deny on //ssn.
func objectSpecificity(p *policy.Policy) int {
	s := 0
	switch {
	case p.Object.Doc != "" && p.Object.Doc != "*":
		s = 2
	case p.Object.Set != "":
		s = 1
	}
	if p.Object.Path != "" && p.Object.Path != "/" {
		s += 2
	}
	s *= 1000
	if pe := p.PathExpr(); pe != nil {
		s += pe.Specificity()
	}
	return s
}

// spread visits the nodes a propagation option extends a mark to, calling
// fn with the propagation distance (>= 1).
func spread(n *xmldoc.Node, prop policy.Propagation, fn func(*xmldoc.Node, int)) {
	if n.Kind != xmldoc.KindElement {
		return
	}
	// Attributes and direct text always accompany their element, at every
	// propagation level.
	attrsAndText := func(e *xmldoc.Node, dist int) {
		for _, a := range e.Attrs {
			fn(a, dist)
		}
		for _, c := range e.Children {
			if c.Kind == xmldoc.KindText {
				fn(c, dist)
			}
		}
	}
	switch prop {
	case policy.NoProp:
		attrsAndText(n, 1)
	case policy.FirstLevel:
		attrsAndText(n, 1)
		for _, c := range n.Children {
			if c.Kind != xmldoc.KindElement {
				continue
			}
			fn(c, 1)
			attrsAndText(c, 2)
		}
	case policy.Cascade:
		var walk func(m *xmldoc.Node, dist int)
		walk = func(m *xmldoc.Node, dist int) {
			for _, a := range m.Attrs {
				fn(a, dist+1)
			}
			for _, c := range m.Children {
				fn(c, dist+1)
				if c.Kind == xmldoc.KindElement {
					walk(c, dist+1)
				}
			}
		}
		walk(n, 0)
	}
}

// Check decides a single access: may the subject exercise priv on the node
// addressed by path within the named document? It returns false for unknown
// documents and non-matching paths (closed system).
func (e *Engine) Check(docName, path string, s *policy.Subject, priv policy.Privilege) bool {
	doc, ok := e.store.Get(docName)
	if !ok {
		return false
	}
	pe, err := xmldoc.CompilePath(path)
	if err != nil {
		return false
	}
	nodes := pe.Select(doc)
	if len(nodes) == 0 {
		return false
	}
	labels := e.Labels(doc, s, priv)
	for _, n := range nodes {
		if !labels[n.ID()] {
			return false
		}
	}
	return true
}

// View computes the subject's authorized view of the document for the
// given privilege: the document pruned to permitted nodes. It returns nil
// when the subject may not see any portion (including the unknown-document
// case).
//
// For the Browse privilege, content (text and attribute values) of
// permitted elements is blanked while the structure is preserved — the
// paper's distinction between reading and browsing (§2.1, §3.2).
func (e *Engine) View(docName string, s *policy.Subject, priv policy.Privilege) *xmldoc.Document {
	doc, ok := e.store.Get(docName)
	if !ok {
		return nil
	}
	return ViewUnder(doc, e.base.Applicable(e.store, docName, s, priv), priv)
}

// ViewUnder is View's computation given the document and the applicable
// policies (see LabelsUnder).
func ViewUnder(doc *xmldoc.Document, applicable []*policy.Policy, priv policy.Privilege) *xmldoc.Document {
	labels := LabelsUnder(doc, applicable)
	v := doc.Prune(func(n *xmldoc.Node) bool { return labels[n.ID()] })
	if v == nil || priv != policy.Browse {
		return v
	}
	blank := v.Clone()
	blank.Walk(func(n *xmldoc.Node) bool {
		if n.Kind != xmldoc.KindElement {
			n.Value = ""
		}
		return true
	})
	return blank
}

// PolicyConfiguration is the set of subjects-independent equivalence
// classes of nodes under the policy base: two nodes are in the same class
// iff exactly the same (policy, sign) marks apply to them. It is the basis
// of the Author-X "well-formed encryption": one key per class (§3.2,
// "all the entry portions to which the same policies apply are encrypted
// with the same key" §4.1).
type PolicyConfiguration struct {
	// Class[id] is the configuration index of node id.
	Class []int
	// NumClasses is the number of distinct configurations, including class
	// 0 which is always the "no policy applies" class.
	NumClasses int
	// Members lists the policies (by name, with sign) defining each class.
	Members []string
}

// Configurations partitions the document's nodes by the set of read
// policies that mark them (ignoring subjects: every installed read policy
// participates). Class 0 collects unmarked nodes.
func (e *Engine) Configurations(doc *xmldoc.Document) *PolicyConfiguration {
	type key = string
	nodeKey := make([]string, doc.NumNodes())
	for idx, p := range e.base.All() {
		if p.Priv != policy.Read || !p.Object.AppliesToDoc(e.store, doc.Name) {
			continue
		}
		var roots []*xmldoc.Node
		if pe := p.PathExpr(); pe != nil {
			roots = pe.Select(doc)
		} else {
			roots = []*xmldoc.Node{doc.Root}
		}
		tag := string(rune('A'+idx%26)) + itoa(idx)
		markNode := func(n *xmldoc.Node, _ int) {
			nodeKey[n.ID()] += tag + ";"
		}
		for _, n := range roots {
			markNode(n, 0)
			spread(n, p.Prop, markNode)
		}
	}
	classOf := map[key]int{"": 0}
	pc := &PolicyConfiguration{Class: make([]int, doc.NumNodes()), Members: []string{""}}
	for id, k := range nodeKey {
		c, ok := classOf[k]
		if !ok {
			c = len(classOf)
			classOf[k] = c
			pc.Members = append(pc.Members, k)
		}
		pc.Class[id] = c
	}
	pc.NumClasses = len(classOf)
	return pc
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [20]byte
	pos := len(b)
	for i > 0 {
		pos--
		b[pos] = byte('0' + i%10)
		i /= 10
	}
	return string(b[pos:])
}
