package decisioncache

import (
	"webdbsec/internal/accessctl"
	"webdbsec/internal/policy"
	"webdbsec/internal/xmldoc"
)

// decisionKey addresses one cached decision artifact: a Labels vector or
// a pruned view. The two generations pin the exact document state and
// policy state the artifact was computed under. A decision reads the
// subject only through the list of policies that apply to it, so the key
// carries that list's identity (policy.Base.ApplicableList) and not the
// subject's: subjects are qualified by roles and credentials (§3.1–3.2),
// and all the identities the base cannot tell apart share one entry.
type decisionKey struct {
	doc        string
	docGen     uint64
	baseGen    uint64
	applicable string
	priv       policy.Privilege
}

func hashDecision(k decisionKey) uint64 {
	h := hashBytes(fnvOffset, k.doc)
	h = hashUint(h, k.docGen)
	h = hashUint(h, k.baseGen)
	h = hashBytes(h, k.applicable)
	return hashBytes(h, string(k.priv))
}

// configKey addresses a subject-independent policy-configuration
// partition.
type configKey struct {
	doc     string
	docGen  uint64
	baseGen uint64
}

func hashConfig(k configKey) uint64 {
	h := hashBytes(fnvOffset, k.doc)
	h = hashUint(h, k.docGen)
	return hashUint(h, k.baseGen)
}

// Engine wraps an accessctl.Engine with caches for every artifact the
// decision pipeline derives: Labels vectors, pruned views, policy-
// configuration partitions, and compiled path expressions. It exposes the
// same decision API, so serving layers (xquery, uddi agencies, the
// semantic stack, authorx publishers) can take either engine.
//
// Correctness contract: a cached artifact is bit-identical to what the
// wrapped engine would compute, for any interleaving of decisions with
// policy-base and store mutations — the generation counters in the key
// guarantee that a decision requested after a mutation completes can
// never be served from the pre-mutation state.
type Engine struct {
	inner   *accessctl.Engine
	labels  *Cache[decisionKey, []bool]
	views   *Cache[decisionKey, *xmldoc.Document]
	configs *Cache[configKey, *accessctl.PolicyConfiguration]
	paths   *Cache[string, *xmldoc.PathExpr]
}

// DefaultCapacity bounds each cache of an Engine when NewEngine is given
// a non-positive capacity.
const DefaultCapacity = 4096

// NewEngine wraps inner with caches bounded to capacity entries each
// (DefaultCapacity when capacity <= 0).
func NewEngine(inner *accessctl.Engine, capacity int) *Engine {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Engine{
		inner:   inner,
		labels:  New[decisionKey, []bool](capacity, hashDecision),
		views:   New[decisionKey, *xmldoc.Document](capacity, hashDecision),
		configs: New[configKey, *accessctl.PolicyConfiguration](capacity, hashConfig),
		paths:   New[string, *xmldoc.PathExpr](capacity, HashString),
	}
}

// Inner returns the wrapped engine.
func (e *Engine) Inner() *accessctl.Engine { return e.inner }

// Store returns the engine's document store.
func (e *Engine) Store() *xmldoc.Store { return e.inner.Store() }

// Base returns the engine's policy base.
func (e *Engine) Base() *policy.Base { return e.inner.Base() }

// keyAt builds the decision key for the generations of one pinned store
// snapshot and returns the applicable policies it names, for the miss path
// to evaluate. Reading the generations before the list is what makes
// caching sound: a computation can only ever observe state at or after its
// key's generations, and any reader that could be served a too-new artifact
// is by definition racing the mutation itself. The snapshot makes the
// generation read and the currency check (currentAt) observe the same
// store version, so a decision keys and validates against one consistent
// state no matter how many writers commit meanwhile.
func (e *Engine) keyAt(sn *xmldoc.StoreSnapshot, docName string, s *policy.Subject, priv policy.Privilege) (decisionKey, []*policy.Policy) {
	k := decisionKey{
		doc:     docName,
		docGen:  sn.DocGeneration(docName),
		baseGen: e.inner.Base().Generation(),
		priv:    priv,
	}
	var applicable []*policy.Policy
	applicable, k.applicable = e.inner.Base().ApplicableList(e.inner.Store(), docName, s, priv)
	return k, applicable
}

// currentAt reports whether doc is the snapshot's binding for its name.
// Decisions about detached documents (a caller holding an old version
// after a Put) bypass the cache — their name+generation would alias the
// current document's entries.
func (e *Engine) currentAt(sn *xmldoc.StoreSnapshot, doc *xmldoc.Document) bool {
	cur, ok := sn.Get(doc.Name)
	return ok && cur == doc
}

// labelsSharedAt returns the cached per-node decision vector WITHOUT
// copying, keyed at the pinned snapshot. Internal callers must not mutate
// it.
func (e *Engine) labelsSharedAt(sn *xmldoc.StoreSnapshot, doc *xmldoc.Document, s *policy.Subject, priv policy.Privilege) []bool {
	// Key FIRST, currency check second — both against the same pinned
	// version: if doc is not that version's binding for its name, a vector
	// computed from doc's tree must never be installed under the version's
	// generation, so the cache is bypassed.
	k, applicable := e.keyAt(sn, doc.Name, s, priv)
	if !e.currentAt(sn, doc) {
		return accessctl.LabelsUnder(doc, applicable)
	}
	v, _ := e.labels.Do(k, func() ([]bool, error) {
		return accessctl.LabelsUnder(doc, applicable), nil
	})
	return v
}

// Labels computes (or recalls) the per-node decision vector for a subject
// requesting priv on the document: out[id] is true iff node id is
// permitted. The returned slice is the caller's to keep.
func (e *Engine) Labels(doc *xmldoc.Document, s *policy.Subject, priv policy.Privilege) []bool {
	sn := e.inner.Store().Snapshot()
	defer sn.Release()
	v := e.labelsSharedAt(sn, doc, s, priv)
	out := make([]bool, len(v))
	copy(out, v)
	return out
}

// View computes (or recalls) the subject's authorized view of the named
// document. Denials (nil views) are cached too, so repeated probing of a
// forbidden document costs one lookup. The returned document is shared
// between callers with the same rights and MUST be treated as read-only —
// documents are immutable by convention everywhere in this repository.
func (e *Engine) View(docName string, s *policy.Subject, priv policy.Privilege) *xmldoc.Document {
	sn := e.inner.Store().Snapshot()
	defer sn.Release()
	k, applicable := e.keyAt(sn, docName, s, priv)
	v, _ := e.views.Do(k, func() (*xmldoc.Document, error) {
		doc, ok := sn.Get(docName)
		if !ok {
			return nil, nil
		}
		return accessctl.ViewUnder(doc, applicable, priv), nil
	})
	return v
}

// Check decides a single access: may the subject exercise priv on the
// node addressed by path within the named document? Compiled paths and
// label vectors are both cached.
func (e *Engine) Check(docName, path string, s *policy.Subject, priv policy.Privilege) bool {
	sn := e.inner.Store().Snapshot()
	defer sn.Release()
	doc, ok := sn.Get(docName)
	if !ok {
		return false
	}
	pe, err := e.paths.Do(path, func() (*xmldoc.PathExpr, error) {
		return xmldoc.CompilePath(path)
	})
	if err != nil {
		return false
	}
	nodes := pe.Select(doc)
	if len(nodes) == 0 {
		return false
	}
	labels := e.labelsSharedAt(sn, doc, s, priv)
	for _, n := range nodes {
		if !labels[n.ID()] {
			return false
		}
	}
	return true
}

// Configurations computes (or recalls) the subject-independent policy-
// configuration partition of the document — the basis of Author-X
// well-formed encryption. The returned partition is shared; treat it as
// read-only.
func (e *Engine) Configurations(doc *xmldoc.Document) *accessctl.PolicyConfiguration {
	// Key before currency check — same ordering argument as
	// labelsSharedAt; the pinned snapshot makes the two reads atomic.
	sn := e.inner.Store().Snapshot()
	defer sn.Release()
	k := configKey{
		doc:     doc.Name,
		docGen:  sn.DocGeneration(doc.Name),
		baseGen: e.inner.Base().Generation(),
	}
	if !e.currentAt(sn, doc) {
		return e.inner.Configurations(doc)
	}
	v, _ := e.configs.Do(k, func() (*accessctl.PolicyConfiguration, error) {
		return e.inner.Configurations(doc), nil
	})
	return v
}

// EngineStats aggregates the per-cache counters of an Engine.
type EngineStats struct {
	Labels  Stats `json:"labels"`
	Views   Stats `json:"views"`
	Configs Stats `json:"configs"`
	Paths   Stats `json:"paths"`
}

// Stats snapshots all four caches.
func (e *Engine) Stats() EngineStats {
	return EngineStats{
		Labels:  e.labels.Stats(),
		Views:   e.views.Stats(),
		Configs: e.configs.Stats(),
		Paths:   e.paths.Stats(),
	}
}
