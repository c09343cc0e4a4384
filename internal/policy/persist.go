package policy

import (
	"encoding/json"
	"fmt"

	"webdbsec/internal/credential"
	"webdbsec/internal/wal"
)

// Snapshot+journal persistence for the policy base. Every Add/Remove
// appends a journal entry carrying the generation the mutation produced;
// Checkpoint collapses the journal into a snapshot. On open the snapshot
// is restored and the journal replayed, ending at exactly the generation
// the last persisted mutation reached — so generation-keyed decision
// caches (internal/decisioncache) built over a reopened base see the same
// (generation → policy state) mapping a never-restarted process would
// have, and the cached ≡ uncached property holds across restarts.
//
// Policies are stored in a plain-data form: the credential expression as
// its source text (recompiled on load), the object path re-validated on
// load, everything else verbatim.

// persistedSubject is SubjectSpec with the credential expression flattened
// to source text.
type persistedSubject struct {
	IDs      []string `json:",omitempty"`
	Roles    []string `json:",omitempty"`
	NotRoles []string `json:",omitempty"`
	CredExpr string   `json:",omitempty"`
}

// persistedPolicy is the on-disk form of a Policy.
type persistedPolicy struct {
	Name    string
	Subject persistedSubject
	Set     string `json:",omitempty"`
	Doc     string `json:",omitempty"`
	Path    string `json:",omitempty"`
	Priv    Privilege
	Sign    Sign
	Prop    Propagation
}

func persistPolicy(p *Policy) *persistedPolicy {
	out := &persistedPolicy{
		Name: p.Name,
		Subject: persistedSubject{
			IDs:      p.Subject.IDs,
			Roles:    p.Subject.Roles,
			NotRoles: p.Subject.NotRoles,
		},
		Set:  p.Object.Set,
		Doc:  p.Object.Doc,
		Path: p.Object.Path,
		Priv: p.Priv,
		Sign: p.Sign,
		Prop: p.Prop,
	}
	if p.Subject.CredExpr != nil {
		out.Subject.CredExpr = p.Subject.CredExpr.String()
	}
	return out
}

func restorePolicy(pp *persistedPolicy) (*Policy, error) {
	p := &Policy{
		Name: pp.Name,
		Subject: SubjectSpec{
			IDs:      pp.Subject.IDs,
			Roles:    pp.Subject.Roles,
			NotRoles: pp.Subject.NotRoles,
		},
		Object: ObjectSpec{Set: pp.Set, Doc: pp.Doc, Path: pp.Path},
		Priv:   pp.Priv,
		Sign:   pp.Sign,
		Prop:   pp.Prop,
	}
	if pp.Subject.CredExpr != "" {
		expr, err := credential.Compile(pp.Subject.CredExpr)
		if err != nil {
			return nil, fmt.Errorf("policy: restore %q: %w", pp.Name, err)
		}
		p.Subject.CredExpr = expr
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("policy: restore: %w", err)
	}
	return p, nil
}

// baseJournal is one journal entry; Gen is the generation after the
// mutation.
type baseJournal struct {
	Op     string // "add" | "remove"
	Gen    uint64
	Name   string           `json:",omitempty"`
	Policy *persistedPolicy `json:",omitempty"`
}

// baseSnap is a checkpoint snapshot of the whole base.
type baseSnap struct {
	Gen      uint64
	Policies []*persistedPolicy
}

// OpenBase recovers a policy base from w and wires it to keep journaling
// there. verifier may be nil, as in NewBase. The caller owns w's lifecycle
// but must not use it directly afterwards.
func OpenBase(verifier *credential.Verifier, w *wal.WAL) (*Base, error) {
	b := NewBase(verifier)
	if payload, _, ok := w.Snapshot(); ok {
		var snap baseSnap
		if err := json.Unmarshal(payload, &snap); err != nil {
			return nil, fmt.Errorf("policy: decode snapshot: %w", err)
		}
		for _, pp := range snap.Policies {
			p, err := restorePolicy(pp)
			if err != nil {
				return nil, err
			}
			b.installLocked(p)
		}
		b.gen = snap.Gen
	}
	err := w.Replay(func(lsn uint64, payload []byte) error {
		var rec baseJournal
		if err := json.Unmarshal(payload, &rec); err != nil {
			return fmt.Errorf("policy: decode journal at lsn %d: %w", lsn, err)
		}
		switch rec.Op {
		case "add":
			p, err := restorePolicy(rec.Policy)
			if err != nil {
				return err
			}
			b.installLocked(p)
		case "remove":
			b.uninstallLocked(rec.Name)
		default:
			return fmt.Errorf("policy: unknown journal op %q at lsn %d", rec.Op, lsn)
		}
		b.gen = rec.Gen
		return nil
	})
	if err != nil {
		return nil, err
	}
	b.w = w
	return b, nil
}

// Checkpoint writes a snapshot of the base and truncates the journal behind
// it. The write lock makes this call the log's only appender, so the
// snapshot covers everything up to LastLSN. The journal's active segment is
// spared (wal.CheckpointAt): the log shrinks to the snapshot plus at most
// one segment, not to the snapshot alone.
func (b *Base) Checkpoint() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.w == nil {
		return fmt.Errorf("policy: checkpoint: no durable backend")
	}
	if b.err != nil {
		return b.err
	}
	snap := baseSnap{Gen: b.gen}
	for _, p := range b.policies {
		snap.Policies = append(snap.Policies, persistPolicy(p))
	}
	payload, err := json.Marshal(&snap)
	if err != nil {
		return fmt.Errorf("policy: encode snapshot: %w", err)
	}
	if err := b.w.CheckpointAt(payload, b.w.LastLSN()); err != nil {
		b.err = err
		return err
	}
	return nil
}

// Err returns the sticky journal error, if any.
func (b *Base) Err() error {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.err
}

// journalLocked appends a journal entry for a mutation that already
// happened. Write lock held; failures stick.
func (b *Base) journalLocked(rec *baseJournal) {
	if b.w == nil || b.err != nil {
		return
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		b.err = err
		return
	}
	if _, err := b.w.Append(payload); err != nil {
		b.err = err
	}
}
