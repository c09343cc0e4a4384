// Package xmldoc implements the graph-structured XML document model that
// underlies the access control and secure dissemination machinery in this
// repository.
//
// The paper (§3.2) observes that "XML documents have graph structures" and
// that an access control model must "support a wide spectrum of access
// granularity levels, ranging from sets of documents, to single documents,
// to specific portions within a document". This package provides exactly
// that substrate: a DOM-like tree of elements, attributes and text, plus
// the intra-document graph edges induced by ID/IDREF attributes, a small
// path language for addressing portions of documents (see path.go), and a
// canonical serialization used for hashing and signing (see canon.go).
package xmldoc

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"webdbsec/internal/mvcc"
)

// NodeKind discriminates the node variants of a document.
type NodeKind int

// Node kinds.
const (
	KindElement NodeKind = iota
	KindAttr
	KindText
)

func (k NodeKind) String() string {
	switch k {
	case KindElement:
		return "element"
	case KindAttr:
		return "attribute"
	case KindText:
		return "text"
	default:
		return fmt.Sprintf("NodeKind(%d)", int(k))
	}
}

// Node is a single node of a document: an element, an attribute, or a text
// segment. Nodes form a tree through Parent/Children and, additionally, a
// graph through IDREF links (see Document.Links).
type Node struct {
	Kind NodeKind

	// Name is the element or attribute name. Empty for text nodes.
	Name string

	// Value is the attribute value or the text content. Empty for elements.
	Value string

	// Parent is nil for the document root.
	Parent *Node

	// Children holds the element and text children of an element, in
	// document order. Attributes are kept separately in Attrs.
	Children []*Node

	// Attrs holds the attribute nodes of an element, sorted by name.
	Attrs []*Node

	// id is the per-document node identifier assigned at build time. It is
	// stable under canonicalization and is what policies and Merkle proofs
	// refer to.
	id int

	doc *Document
}

// ID returns the per-document node identifier. Identifiers are assigned in
// document order, are dense, and start at 0 for the root.
func (n *Node) ID() int { return n.id }

// Document returns the document the node belongs to.
func (n *Node) Document() *Document { return n.doc }

// Attr returns the value of the named attribute and whether it is present.
func (n *Node) Attr(name string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// Text returns the concatenation of all text descendants of n in document
// order. For a text node it returns the node's value.
func (n *Node) Text() string {
	if n.Kind == KindText {
		return n.Value
	}
	if len(n.Children) == 1 && n.Children[0].Kind == KindText {
		return n.Children[0].Value
	}
	var b strings.Builder
	var walk func(*Node)
	walk = func(m *Node) {
		if m.Kind == KindText {
			b.WriteString(m.Value)
			return
		}
		for _, c := range m.Children {
			walk(c)
		}
	}
	walk(n)
	return b.String()
}

// Path returns the absolute element path of n, e.g. "/hospital/patient/name".
// Attribute nodes append "/@name"; text nodes use the parent element's path.
func (n *Node) Path() string {
	if n == nil {
		return ""
	}
	switch n.Kind {
	case KindAttr:
		return n.Parent.Path() + "/@" + n.Name
	case KindText:
		return n.Parent.Path()
	}
	if n.Parent == nil {
		return "/" + n.Name
	}
	return n.Parent.Path() + "/" + n.Name
}

// Depth returns the number of ancestors of n.
func (n *Node) Depth() int {
	d := 0
	for p := n.Parent; p != nil; p = p.Parent {
		d++
	}
	return d
}

// IsAncestorOf reports whether n is a proper ancestor of m.
func (n *Node) IsAncestorOf(m *Node) bool {
	for p := m.Parent; p != nil; p = p.Parent {
		if p == n {
			return true
		}
	}
	return false
}

// ElementChildren returns only the element children of n.
func (n *Node) ElementChildren() []*Node {
	var out []*Node
	for _, c := range n.Children {
		if c.Kind == KindElement {
			out = append(out, c)
		}
	}
	return out
}

// Child returns the first element child with the given name, or nil.
func (n *Node) Child(name string) *Node {
	for _, c := range n.Children {
		if c.Kind == KindElement && c.Name == name {
			return c
		}
	}
	return nil
}

// Link is a graph edge induced by an IDREF(S) attribute: the element holding
// the referring attribute points at the element whose ID attribute matches.
type Link struct {
	From *Node // referring element
	Attr string
	To   *Node // referred element
}

// Document is a parsed XML document: a node tree plus the ID index and the
// IDREF link set that give it the graph structure the paper refers to.
type Document struct {
	// Name identifies the document inside a Store (e.g. a file name or URI).
	Name string

	Root *Node

	// nodes indexes nodes by their dense identifier.
	nodes []*Node

	// byXMLID maps the value of "id" attributes to the owning element.
	byXMLID map[string]*Node

	// Links are the IDREF edges, discovered by Freeze.
	Links []Link
}

// NumNodes returns the number of nodes in the document (elements,
// attributes and text segments).
func (d *Document) NumNodes() int { return len(d.nodes) }

// NodeByID returns the node with the given dense identifier, or nil.
func (d *Document) NodeByID(id int) *Node {
	if id < 0 || id >= len(d.nodes) {
		return nil
	}
	return d.nodes[id]
}

// ElementByXMLID returns the element whose id="..." attribute equals v.
func (d *Document) ElementByXMLID(v string) (*Node, bool) {
	n, ok := d.byXMLID[v]
	return n, ok
}

// Nodes returns all nodes in document order. The returned slice must not be
// modified.
func (d *Document) Nodes() []*Node { return d.nodes }

// Walk calls fn for every node in document order, root first. If fn returns
// false for an element, its subtree (including attributes) is skipped.
func (d *Document) Walk(fn func(*Node) bool) {
	var walk func(*Node)
	walk = func(n *Node) {
		if !fn(n) {
			return
		}
		for _, a := range n.Attrs {
			fn(a)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	if d.Root != nil {
		walk(d.Root)
	}
}

// Builder incrementally constructs a Document. It is the only way to create
// documents programmatically; Parse uses it internally.
type Builder struct {
	doc  *Document
	cur  *Node
	done bool
}

// NewBuilder returns a Builder for a document with the given name and root
// element name.
func NewBuilder(docName, rootName string) *Builder {
	d := &Document{Name: docName}
	root := &Node{Kind: KindElement, Name: rootName, doc: d}
	d.Root = root
	return &Builder{doc: d, cur: root}
}

// Begin opens a child element of the current element and descends into it.
func (b *Builder) Begin(name string) *Builder {
	b.mustOpen()
	n := &Node{Kind: KindElement, Name: name, Parent: b.cur, doc: b.doc}
	b.cur.Children = append(b.cur.Children, n)
	b.cur = n
	return b
}

// End closes the current element, ascending to its parent. Ending the root
// is an error caught by Freeze.
func (b *Builder) End() *Builder {
	b.mustOpen()
	if b.cur.Parent != nil {
		b.cur = b.cur.Parent
	}
	return b
}

// Attrib sets an attribute of the current element. An element has one
// attribute per name, so setting a name again replaces its value.
func (b *Builder) Attrib(name, value string) *Builder {
	b.mustOpen()
	for _, a := range b.cur.Attrs {
		if a.Name == name {
			a.Value = value
			return b
		}
	}
	a := &Node{Kind: KindAttr, Name: name, Value: value, Parent: b.cur, doc: b.doc}
	b.cur.Attrs = append(b.cur.Attrs, a)
	return b
}

// Text adds a text child to the current element.
func (b *Builder) Text(s string) *Builder {
	b.mustOpen()
	t := &Node{Kind: KindText, Value: s, Parent: b.cur, doc: b.doc}
	b.cur.Children = append(b.cur.Children, t)
	return b
}

// Element is shorthand for Begin(name).Text(text).End().
func (b *Builder) Element(name, text string) *Builder {
	return b.Begin(name).Text(text).End()
}

func (b *Builder) mustOpen() {
	if b.done {
		panic("xmldoc: Builder used after Freeze")
	}
}

// Freeze finalizes the document: it sorts attributes, assigns dense node
// identifiers in document order, indexes id attributes and resolves IDREF
// links. The Builder must not be used afterwards.
func (b *Builder) Freeze() *Document {
	if b.done {
		panic("xmldoc: Freeze called twice")
	}
	b.done = true
	d := b.doc
	d.index()
	return d
}

// index computes dense ids, the XML-ID index and the IDREF link set of a
// document that has only its tree.
func (d *Document) index() {
	var walk func(*Node)
	walk = func(n *Node) {
		n.id = len(d.nodes)
		n.doc = d
		d.nodes = append(d.nodes, n)
		slices.SortStableFunc(n.Attrs, func(a, b *Node) int { return strings.Compare(a.Name, b.Name) })
		for _, a := range n.Attrs {
			a.id = len(d.nodes)
			a.doc = d
			d.nodes = append(d.nodes, a)
			if a.Name == "id" {
				if d.byXMLID == nil {
					d.byXMLID = make(map[string]*Node)
				}
				d.byXMLID[a.Value] = n
			}
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	if d.Root != nil {
		walk(d.Root)
	}
	// Resolve IDREF links in a second pass, now that byXMLID is complete.
	for _, n := range d.nodes {
		if n.Kind == KindAttr && (n.Name == "idref" || n.Name == "idrefs") {
			d.link(n)
		}
	}
}

// link adds the IDREF edges of the idref or idrefs attribute a.
func (d *Document) link(a *Node) {
	for _, ref := range strings.Fields(a.Value) {
		if to, ok := d.byXMLID[ref]; ok {
			d.Links = append(d.Links, Link{From: a.Parent, Attr: a.Name, To: to})
		}
	}
}

// Detach makes the subtree rooted at the element n a document of its own
// without serialising it, and returns exactly the tree
// ParseString(docName, CanonicalSubtree(n)) would build: adjacent text
// nodes coalesced, carriage returns read as the parser reads them,
// whitespace-only text dropped, attributes sorted, identifiers dense from
// 0, the id index and IDREF links rebuilt over the subtree alone.
//
// It works in place. The document n belonged to is consumed: its node
// table and links still name nodes that now belong to the result, so the
// caller must drop it. n may also be a fresh element whose Children were
// taken from other documents' roots; those donors are consumed likewise.
func Detach(docName string, n *Node) *Document {
	n.Parent = nil
	d := &Document{Name: docName, Root: n}
	d.nodes = make([]*Node, 0, normalize(n))
	d.index()
	return d
}

// normalize reshapes the subtree under element n as a parse of its
// canonical form would, and returns the number of nodes it keeps.
func normalize(n *Node) int {
	count := 1 + len(n.Attrs)
	for _, a := range n.Attrs {
		a.Parent = n
		a.Value = parsedNewlines(a.Value)
	}
	kept := n.Children[:0]
	for i := 0; i < len(n.Children); i++ {
		c := n.Children[i]
		c.Parent = n
		if c.Kind == KindElement {
			count += normalize(c)
			kept = append(kept, c)
			continue
		}
		// A run of text nodes parses back as one: "a" beside " " is "a ".
		run := i + 1
		for run < len(n.Children) && n.Children[run].Kind == KindText {
			run++
		}
		if run > i+1 {
			var b strings.Builder
			for _, t := range n.Children[i:run] {
				b.WriteString(t.Value)
			}
			c.Value = b.String()
			i = run - 1
		}
		c.Value = parsedNewlines(c.Value)
		if strings.TrimSpace(c.Value) != "" {
			kept = append(kept, c)
			count++
		}
	}
	clear(n.Children[len(kept):])
	n.Children = kept
	return count
}

// parsedNewlines maps \r\n and a lone \r to \n, as Parse reads raw input.
// Canonical writes a carriage return raw, so one that reached a tree
// through a character reference does not survive print-and-parse.
func parsedNewlines(s string) string {
	if !strings.Contains(s, "\r") {
		return s
	}
	return strings.ReplaceAll(strings.ReplaceAll(s, "\r\n", "\n"), "\r", "\n")
}

// Clone returns a deep copy of the document. Node identifiers are preserved.
func (d *Document) Clone() *Document {
	if d.Root == nil {
		return &Document{Name: d.Name}
	}
	return d.Prune(func(*Node) bool { return true })
}

// Prune returns a deep copy of the document retaining only the nodes for
// which keep returns true, together with all their ancestors (so the result
// is a well-formed document). Attributes and text of retained elements are
// kept only if keep accepts them. If the root itself is not retained and no
// descendant is, Prune returns nil.
//
// Prune is the core of Author-X view computation: the access control engine
// marks the authorized nodes and Prune materializes the subject's view.
func (d *Document) Prune(keep func(*Node) bool) *Document {
	retain := make([]bool, len(d.nodes))
	for _, n := range d.nodes {
		if keep(n) {
			// Keep the node and all its ancestors.
			retain[n.id] = true
			for p := n.Parent; p != nil; p = p.Parent {
				retain[p.id] = true
			}
		}
	}
	if d.Root == nil || !retain[d.Root.id] {
		return nil
	}
	out := &Document{Name: d.Name}
	var copyNode func(src *Node, parent *Node) *Node
	copyNode = func(src *Node, parent *Node) *Node {
		n := &Node{Kind: src.Kind, Name: src.Name, Value: src.Value, Parent: parent, doc: out}
		for _, a := range src.Attrs {
			if retain[a.id] {
				n.Attrs = append(n.Attrs, &Node{Kind: KindAttr, Name: a.Name, Value: a.Value, Parent: n, doc: out})
			}
		}
		for _, c := range src.Children {
			if retain[c.id] {
				n.Children = append(n.Children, copyNode(c, n))
			}
		}
		return n
	}
	out.Root = copyNode(d.Root, nil)
	out.index()
	return out
}

// Store is a named collection of documents — the "document set" granularity
// of the Author-X policy model. All methods are safe for concurrent use.
//
// Documents themselves are immutable once frozen; "mutating" a document
// means Put-ting a replacement under the same name. The store therefore
// tracks a generation per document name, advanced whenever the name's
// binding changes (Put, Remove) or its set membership changes (AddToSet) —
// exactly the events that can alter an access decision about the document.
// Decision caches (internal/decisioncache) key cached artifacts on it.
//
// Internally the store is multi-versioned: the whole decision-relevant
// state (documents, set membership, generations) lives in an immutable
// storeVersion published through an mvcc.Cell (the same cell
// reldb.Database publishes through). Readers load it and never take a
// lock; writers build a copy-on-write successor under mu and
// publish it. Snapshot pins a version when a caller needs several reads
// to observe one consistent state.
type Store struct {
	// mu serializes writers (Put, Remove, AddToSet) and version
	// installation; readers never take it.
	mu sync.Mutex
	// versions publishes the latest version: installed under mu, loaded
	// and pinned anywhere.
	versions mvcc.Cell[storeVersion]
}

// storeVersion is one immutable state of the store. A writer builds it
// privately — cloning the outer maps and any inner set map it touches —
// and nothing mutates it after publication.
type storeVersion struct {
	gen  uint64
	docs map[string]*Document
	// sets maps a set name to the document names it contains.
	sets map[string]map[string]bool
	// memberOf is the reverse index: document name -> set names. It lets
	// the policy index find set-level policies without scanning all sets.
	memberOf map[string]map[string]bool
	docGens  map[string]uint64
}

func newStoreVersion() *storeVersion {
	return &storeVersion{
		docs:     make(map[string]*Document),
		sets:     make(map[string]map[string]bool),
		memberOf: make(map[string]map[string]bool),
		docGens:  make(map[string]uint64),
	}
}

// clone returns a private successor sharing the inner set maps with v; the
// writer must replace (not mutate) any inner map it changes — link and
// unlinkDoc do.
func (v *storeVersion) clone() *storeVersion {
	nv := &storeVersion{
		gen:      v.gen,
		docs:     make(map[string]*Document, len(v.docs)+1),
		sets:     make(map[string]map[string]bool, len(v.sets)+1),
		memberOf: make(map[string]map[string]bool, len(v.memberOf)+1),
		docGens:  make(map[string]uint64, len(v.docGens)+1),
	}
	for k, d := range v.docs {
		nv.docs[k] = d
	}
	for k, m := range v.sets {
		nv.sets[k] = m
	}
	for k, m := range v.memberOf {
		nv.memberOf[k] = m
	}
	for k, g := range v.docGens {
		nv.docGens[k] = g
	}
	return nv
}

// link wires doc into set in both directions, copying the touched inner
// maps so versions sharing them are undisturbed. Private versions only.
func (v *storeVersion) link(set, doc string) {
	m := copySet(v.sets[set])
	m[doc] = true
	v.sets[set] = m
	r := copySet(v.memberOf[doc])
	r[set] = true
	v.memberOf[doc] = r
}

// unlinkDoc drops doc from every set, copying the touched inner maps.
func (v *storeVersion) unlinkDoc(doc string) {
	for set, m := range v.sets {
		if m[doc] {
			nm := copySet(m)
			delete(nm, doc)
			v.sets[set] = nm
		}
	}
	delete(v.memberOf, doc)
}

func copySet(m map[string]bool) map[string]bool {
	out := make(map[string]bool, len(m)+1)
	for k := range m {
		out[k] = true
	}
	return out
}

func (v *storeVersion) names() []string {
	out := make([]string, 0, len(v.docs))
	for name := range v.docs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func (v *storeVersion) setsOf(doc string) []string {
	m := v.memberOf[doc]
	if len(m) == 0 {
		return nil
	}
	out := make([]string, 0, len(m))
	for set := range m {
		out = append(out, set)
	}
	sort.Strings(out)
	return out
}

func (v *storeVersion) setMembers(set string) []string {
	var out []string
	for name := range v.sets[set] {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// NewStore returns an empty document store.
func NewStore() *Store {
	s := &Store{}
	s.versions.Init(&s.mu, *newStoreVersion())
	return s
}

// VersionStats reports version lifecycle counters — test and operational
// visibility into snapshot retention.
func (s *Store) VersionStats() mvcc.Stats { return s.versions.Stats() }

// Put adds or replaces a document, advancing its generation.
//
// seclint:exempt document storage below the access-control gate; accessctl.Engine authorizes before the store mutates
func (s *Store) Put(d *Document) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := s.versions.Load().clone()
	v.docs[d.Name] = d
	v.docGens[d.Name]++
	v.gen++
	s.versions.Install(*v)
}

// Get returns the named document.
//
// seclint:exempt document storage below the access-control gate; accessctl.Engine computes authorized views above it
func (s *Store) Get(name string) (*Document, bool) {
	v := s.versions.Load()
	d, ok := v.docs[name]
	return d, ok
}

// Remove deletes the named document and drops it from every set, advancing
// the document's generation.
//
// seclint:exempt document storage below the access-control gate; accessctl.Engine authorizes before the store mutates
func (s *Store) Remove(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := s.versions.Load().clone()
	delete(v.docs, name)
	v.unlinkDoc(name)
	v.docGens[name]++
	v.gen++
	s.versions.Install(*v)
}

// Len returns the number of documents in the store.
func (s *Store) Len() int {
	return len(s.versions.Load().docs)
}

// Generation returns the store-wide mutation counter: it advances on every
// Put, Remove and AddToSet and never repeats.
func (s *Store) Generation() uint64 {
	return s.versions.Load().gen
}

// DocGeneration returns the named document's generation: it advances
// whenever the name's binding or set membership changes, and is 0 for
// names the store has never seen. Together with the name it identifies an
// exact decision-relevant state of the document, so caches keyed on
// (name, generation) are invalidated precisely — mutating one document
// does not disturb cached artifacts of any other.
func (s *Store) DocGeneration(name string) uint64 {
	return s.versions.Load().docGens[name]
}

// Names returns the document names in sorted order.
func (s *Store) Names() []string {
	return s.versions.Load().names()
}

// AddToSet places a document into a named document set, creating the set if
// needed. The document need not exist yet. Membership changes advance the
// document's generation (set-level policies may now cover it).
//
// seclint:exempt set administration on the trusted setup path, not a data entry point
func (s *Store) AddToSet(set, doc string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := s.versions.Load().clone()
	v.link(set, doc)
	v.docGens[doc]++
	v.gen++
	s.versions.Install(*v)
}

// SetContains reports whether the named set contains the document.
func (s *Store) SetContains(set, doc string) bool {
	return s.versions.Load().sets[set][doc]
}

// SetsOf returns the names of the sets containing the document, sorted.
// It returns nil for documents in no set.
func (s *Store) SetsOf(doc string) []string {
	return s.versions.Load().setsOf(doc)
}

// SetMembers returns the sorted document names of a set.
func (s *Store) SetMembers(set string) []string {
	return s.versions.Load().setMembers(set)
}

// StoreSnapshot is a pinned, immutable view of the store at one version.
// Every method observes the same state: a decision evaluated against a
// snapshot sees documents, set membership and generations that all belong
// to one point in the mutation order, no matter how many writers commit
// meanwhile. Release it when done so the version can be reclaimed;
// reads are lock-free throughout.
type StoreSnapshot struct {
	pin mvcc.Pin[storeVersion]
}

// Snapshot pins the current version and returns a consistent read view.
func (s *Store) Snapshot() *StoreSnapshot {
	sn := &StoreSnapshot{}
	s.versions.Pin(&sn.pin)
	return sn
}

// Release unpins the snapshot. Safe to call more than once.
func (sn *StoreSnapshot) Release() { sn.pin.Release() }

// Get returns the named document as of the snapshot.
//
// seclint:exempt document storage below the access-control gate; accessctl.Engine computes authorized views above it
func (sn *StoreSnapshot) Get(name string) (*Document, bool) {
	d, ok := sn.pin.Value().docs[name]
	return d, ok
}

// Len returns the number of documents as of the snapshot.
func (sn *StoreSnapshot) Len() int { return len(sn.pin.Value().docs) }

// Generation returns the store-wide mutation counter as of the snapshot.
func (sn *StoreSnapshot) Generation() uint64 { return sn.pin.Value().gen }

// DocGeneration returns the named document's generation as of the
// snapshot.
func (sn *StoreSnapshot) DocGeneration(name string) uint64 {
	return sn.pin.Value().docGens[name]
}

// Names returns the document names in sorted order as of the snapshot.
func (sn *StoreSnapshot) Names() []string { return sn.pin.Value().names() }

// SetContains reports whether the named set contains the document as of
// the snapshot.
func (sn *StoreSnapshot) SetContains(set, doc string) bool {
	return sn.pin.Value().sets[set][doc]
}

// SetsOf returns the names of the sets containing the document as of the
// snapshot, sorted; nil for documents in no set.
func (sn *StoreSnapshot) SetsOf(doc string) []string {
	return sn.pin.Value().setsOf(doc)
}

// SetMembers returns the sorted document names of a set as of the
// snapshot.
func (sn *StoreSnapshot) SetMembers(set string) []string {
	return sn.pin.Value().setMembers(set)
}
