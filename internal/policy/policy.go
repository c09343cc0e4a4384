// Package policy defines the access control policy model used throughout
// the repository, following the Author-X design [5] the paper describes in
// §3.2: policies are specified over graph-structured XML at "a wide
// spectrum of access granularity levels, ranging from sets of documents, to
// single documents, to specific portions within a document", support "both
// content-dependent and content-independent" protection, and qualify
// subjects "by means of credentials" as well as identities and roles.
//
// A policy is (subject spec, object spec, privilege, sign, propagation).
// Conflicts are resolved by the standard Author-X rules: the policy with
// the more specific object wins; at equal specificity denials take
// precedence; in the absence of any applicable policy the system is closed
// (deny).
package policy

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"

	"webdbsec/internal/credential"
	"webdbsec/internal/wal"
	"webdbsec/internal/xmldoc"
)

// Privilege is the kind of access a policy grants or denies.
type Privilege string

// Privileges. Browse reveals document structure only (element names);
// Read additionally reveals content; Write permits modification and
// subsumes nothing (writing does not imply reading).
const (
	Browse Privilege = "browse"
	Read   Privilege = "read"
	Write  Privilege = "write"
)

// Sign marks a policy as a permission or a prohibition.
type Sign int

// Signs.
const (
	Deny Sign = iota
	Permit
)

func (s Sign) String() string {
	if s == Permit {
		return "permit"
	}
	return "deny"
}

// Propagation controls how far down the document tree an authorization on
// an element extends.
type Propagation int

// Propagation options (Author-X: NO_PROP, FIRST_LEVEL, CASCADE).
const (
	// NoProp applies to the matched node only (plus its attributes and
	// text, which have no independent protection granularity below their
	// element for browse, but are matched individually for read).
	NoProp Propagation = iota
	// FirstLevel extends to the matched element's direct children.
	FirstLevel
	// Cascade extends to the whole subtree.
	Cascade
)

func (p Propagation) String() string {
	switch p {
	case NoProp:
		return "no-prop"
	case FirstLevel:
		return "first-level"
	case Cascade:
		return "cascade"
	}
	return fmt.Sprintf("Propagation(%d)", int(p))
}

// Subject is the access-requesting context a policy's subject spec is
// matched against: an identity, the subject's active roles, and a wallet
// of credentials.
type Subject struct {
	ID     string
	Roles  []string
	Wallet *credential.Wallet
}

// HasRole reports whether the subject has the role active.
func (s *Subject) HasRole(role string) bool {
	for _, r := range s.Roles {
		if r == role {
			return true
		}
	}
	return false
}

// Fingerprint returns a canonical digest of everything policy evaluation
// can observe about the subject: its identity, its active roles (order-
// insensitive) and its credential wallet (order-insensitive, signatures
// included). Two subjects with equal fingerprints receive identical
// decisions from any policy base, which is what makes the fingerprint a
// sound cache key. The fingerprint is recomputed on every call — it is the
// caller's job not to mutate a subject mid-request.
func (s *Subject) Fingerprint() string {
	roles := make([]string, len(s.Roles))
	copy(roles, s.Roles)
	sort.Strings(roles)
	h := sha256.New()
	fmt.Fprintf(h, "subject|%s|", s.ID)
	for _, r := range roles {
		fmt.Fprintf(h, "r=%s|", r)
	}
	wfp := s.Wallet.Fingerprint()
	h.Write(wfp[:])
	sum := h.Sum(nil)
	return hex.EncodeToString(sum[:16])
}

// SubjectSpec qualifies the subjects a policy applies to. A spec matches if
// ANY of its non-empty positive qualifiers matches — the subject's identity
// is listed in IDs, one of the subject's roles is listed in Roles, or the
// credential expression evaluates to true over the subject's wallet — AND
// none of the exceptions applies (the subject holds no role in NotRoles).
// The special ID "*" matches every subject (public policies). A spec with
// only exceptions matches every subject the exceptions do not exclude,
// which is how "deny X to everyone but partners" is written.
type SubjectSpec struct {
	IDs      []string
	Roles    []string
	CredExpr *credential.Expr
	// NotRoles excludes subjects holding any of the listed roles.
	NotRoles []string
}

// Matches evaluates the spec. verifier may be nil to skip credential
// signature verification.
func (ss *SubjectSpec) Matches(s *Subject, verifier *credential.Verifier) bool {
	for _, r := range ss.NotRoles {
		if s.HasRole(r) {
			return false
		}
	}
	if len(ss.IDs) == 0 && len(ss.Roles) == 0 && ss.CredExpr == nil {
		// Exception-only spec: matches everyone not excluded above.
		return len(ss.NotRoles) > 0
	}
	for _, id := range ss.IDs {
		if id == "*" || id == s.ID {
			return true
		}
	}
	for _, r := range ss.Roles {
		if s.HasRole(r) {
			return true
		}
	}
	if ss.CredExpr != nil && ss.CredExpr.EvalWallet(s.Wallet, verifier) {
		return true
	}
	return false
}

// ObjectSpec designates the protected objects at one of three granularity
// levels. Exactly one of Set or Doc should be non-empty; Path further
// narrows a Doc (or every doc of a Set) to the matched portions. Doc "*"
// matches every document in the store.
type ObjectSpec struct {
	// Set names a document set registered in the store.
	Set string
	// Doc names a single document, or "*" for all.
	Doc string
	// Path, when non-empty, selects portions within the matched documents.
	Path string

	compiled *xmldoc.PathExpr
}

// specificity ranks object specs for conflict resolution: a path-level spec
// beats a document-level spec beats a set-level spec beats a wildcard;
// among path-level specs, longer (deeper) node matches are resolved by the
// engine using node depth, not here.
func (os *ObjectSpec) specificity() int {
	s := 0
	switch {
	case os.Doc != "" && os.Doc != "*":
		s = 2
	case os.Set != "":
		s = 1
	}
	if os.Path != "" && os.Path != "/" {
		s += 2
	}
	return s
}

// AppliesToDoc reports whether the spec covers the named document of the
// store (ignoring Path).
func (os *ObjectSpec) AppliesToDoc(store *xmldoc.Store, doc string) bool {
	if os.Doc == "*" {
		return true
	}
	if os.Doc != "" {
		return os.Doc == doc
	}
	if os.Set != "" {
		return store.SetContains(os.Set, doc)
	}
	return false
}

// Policy is one access control rule.
type Policy struct {
	// Name identifies the policy in audit records and error messages.
	Name    string
	Subject SubjectSpec
	Object  ObjectSpec
	Priv    Privilege
	Sign    Sign
	Prop    Propagation
}

// Validate compiles the object path and checks well-formedness.
func (p *Policy) Validate() error {
	if p.Priv == "" {
		return fmt.Errorf("policy %q: missing privilege", p.Name)
	}
	if p.Object.Doc == "" && p.Object.Set == "" {
		return fmt.Errorf("policy %q: object spec needs Doc or Set", p.Name)
	}
	if p.Object.Doc != "" && p.Object.Set != "" {
		return fmt.Errorf("policy %q: object spec cannot have both Doc and Set", p.Name)
	}
	if len(p.Subject.IDs) == 0 && len(p.Subject.Roles) == 0 &&
		p.Subject.CredExpr == nil && len(p.Subject.NotRoles) == 0 {
		return fmt.Errorf("policy %q: empty subject spec", p.Name)
	}
	if p.Object.Path != "" {
		pe, err := xmldoc.CompilePath(p.Object.Path)
		if err != nil {
			return fmt.Errorf("policy %q: %w", p.Name, err)
		}
		p.Object.compiled = pe
	}
	return nil
}

// PathExpr returns the compiled object path, or nil when the policy covers
// whole documents.
func (p *Policy) PathExpr() *xmldoc.PathExpr { return p.Object.compiled }

// objKey anchors an index bucket: the object spec's document or set name
// paired with the policy's privilege.
type objKey struct {
	name string
	priv Privilege
}

// Base is a policy base: the set of policies governing a document store.
// All methods are safe for concurrent use — readers (Applicable, All,
// Generation) take a shared lock, Add/Remove an exclusive one — so the
// base can be administered while it serves decisions. A *Policy handed to
// Add is owned by the base afterwards and must not be mutated.
//
// Internally the base maintains an index over the object specs, keyed by
// (document name | set name | wildcard) × privilege, so Applicable touches
// only the policies that can possibly cover the requested document instead
// of scanning the whole base. A monotonic generation counter, bumped on
// every mutation, lets decision caches (internal/decisioncache) key cached
// artifacts to an exact policy state.
type Base struct {
	mu       sync.RWMutex
	policies []*Policy
	verifier *credential.Verifier
	gen      uint64
	nextSeq  uint64
	// seqOf records insertion order so index-merged candidates can be
	// replayed in the exact order a linear scan would have produced.
	seqOf map[*Policy]uint64
	// byDoc indexes policies naming a single document; bySet those naming
	// a document set; wild the Doc=="*" policies, by privilege.
	byDoc map[objKey][]*Policy
	bySet map[objKey][]*Policy
	wild  map[Privilege][]*Policy
	// w, when set, receives a journal entry for every mutation (see
	// persist.go); err is the sticky journal failure.
	w   *wal.WAL
	err error
}

// NewBase returns an empty policy base. verifier may be nil to skip
// credential signature verification (policies then trust presented
// credentials, which is only appropriate in tests).
func NewBase(verifier *credential.Verifier) *Base {
	return &Base{
		verifier: verifier,
		seqOf:    make(map[*Policy]uint64),
		byDoc:    make(map[objKey][]*Policy),
		bySet:    make(map[objKey][]*Policy),
		wild:     make(map[Privilege][]*Policy),
	}
}

// addToIndex inserts p into its bucket. Write lock held.
func (b *Base) addToIndex(p *Policy) {
	switch {
	case p.Object.Doc == "*":
		b.wild[p.Priv] = append(b.wild[p.Priv], p)
	case p.Object.Doc != "":
		k := objKey{p.Object.Doc, p.Priv}
		b.byDoc[k] = append(b.byDoc[k], p)
	case p.Object.Set != "":
		k := objKey{p.Object.Set, p.Priv}
		b.bySet[k] = append(b.bySet[k], p)
	}
}

// removeFromIndex deletes p from its bucket. Write lock held.
func (b *Base) removeFromIndex(p *Policy) {
	filter := func(s []*Policy) []*Policy {
		for i, q := range s {
			if q == p {
				return append(s[:i], s[i+1:]...)
			}
		}
		return s
	}
	switch {
	case p.Object.Doc == "*":
		b.wild[p.Priv] = filter(b.wild[p.Priv])
	case p.Object.Doc != "":
		k := objKey{p.Object.Doc, p.Priv}
		b.byDoc[k] = filter(b.byDoc[k])
	case p.Object.Set != "":
		k := objKey{p.Object.Set, p.Priv}
		b.bySet[k] = filter(b.bySet[k])
	}
}

// installLocked places a validated policy into the list and index without
// advancing the generation or journaling. Write lock held (or exclusive
// ownership during recovery).
func (b *Base) installLocked(p *Policy) {
	b.policies = append(b.policies, p)
	b.seqOf[p] = b.nextSeq
	b.nextSeq++
	b.addToIndex(p)
}

// uninstallLocked removes the named policy without advancing the
// generation or journaling; it reports whether the policy existed.
func (b *Base) uninstallLocked(name string) bool {
	for i, p := range b.policies {
		if p.Name == name {
			b.policies = append(b.policies[:i], b.policies[i+1:]...)
			b.removeFromIndex(p)
			delete(b.seqOf, p)
			return true
		}
	}
	return false
}

// Add validates and installs a policy. The generation counter advances, so
// decisions cached against the previous state can no longer be served.
func (b *Base) Add(p *Policy) error {
	if err := p.Validate(); err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.installLocked(p)
	b.gen++
	b.journalLocked(&baseJournal{Op: "add", Gen: b.gen, Policy: persistPolicy(p)})
	return nil
}

// MustAdd is Add that panics on error; for tests and examples.
func (b *Base) MustAdd(p *Policy) {
	if err := b.Add(p); err != nil {
		panic(err)
	}
}

// Remove deletes the named policy and reports whether it existed. A
// removal advances the generation counter.
func (b *Base) Remove(name string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.uninstallLocked(name) {
		return false
	}
	b.gen++
	b.journalLocked(&baseJournal{Op: "remove", Gen: b.gen, Name: name})
	return true
}

// Len returns the number of installed policies.
func (b *Base) Len() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return len(b.policies)
}

// Generation returns the mutation counter: it advances on every Add and
// successful Remove, never repeats, and therefore names an exact policy
// state. Caches key decisions on it for precise invalidation.
func (b *Base) Generation() uint64 {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.gen
}

// Verifier returns the credential verifier used for subject matching.
func (b *Base) Verifier() *credential.Verifier { return b.verifier }

// Applicable returns the policies whose subject spec matches s, whose
// privilege equals priv, and whose object spec covers the named document,
// in installation order (identical to what a full scan would return).
// Instead of scanning the base it merges the index buckets that can cover
// the document: the bucket named after it, the buckets of the sets the
// store places it in, and the wildcard bucket.
func (b *Base) Applicable(store *xmldoc.Store, doc string, s *Subject, priv Privilege) []*Policy {
	out, _ := b.ApplicableList(store, doc, s, priv)
	return out
}

// ApplicableList is Applicable plus the identity of the list it returns:
// the installation sequence numbers of its members, eight bytes each. A
// sequence number is never reused within a base, so equal identities mean
// the same policies in the same order — everything a decision reads of
// the subject — which lets decision caches share one artifact between all
// subjects the base cannot tell apart.
func (b *Base) ApplicableList(store *xmldoc.Store, doc string, s *Subject, priv Privilege) ([]*Policy, string) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	// Match first, order second: the matching policies are few where the
	// candidates can be many, and sorting them by installation sequence
	// gives the list a full scan would.
	var out []*Policy
	collect := func(bucket []*Policy) {
		for _, p := range bucket {
			if p.Subject.Matches(s, b.verifier) {
				out = append(out, p)
			}
		}
	}
	collect(b.byDoc[objKey{doc, priv}])
	collect(b.wild[priv])
	if store != nil {
		for _, set := range store.SetsOf(doc) {
			collect(b.bySet[objKey{set, priv}])
		}
	}
	sort.Slice(out, func(i, j int) bool { return b.seqOf[out[i]] < b.seqOf[out[j]] })
	id := make([]byte, 0, 8*len(out))
	for _, p := range out {
		id = binary.BigEndian.AppendUint64(id, b.seqOf[p])
	}
	return out, string(id)
}

// All returns a copy of the installed policy list, so callers can never
// reorder or splice the base's own slice behind the lock. The *Policy
// values are shared and must be treated as read-only.
func (b *Base) All() []*Policy {
	b.mu.RLock()
	defer b.mu.RUnlock()
	out := make([]*Policy, len(b.policies))
	copy(out, b.policies)
	return out
}
