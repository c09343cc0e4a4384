package xmldoc

import (
	"encoding/json"
	"fmt"

	"webdbsec/internal/mvcc"
	"webdbsec/internal/wal"
)

// Snapshot+journal persistence for the document store. Documents travel as
// their canonical serialization (canon.go) and are re-parsed on load;
// since Canonical is also the representation that is hashed and signed,
// what is persisted is exactly what the integrity machinery vouches for.
// (Whitespace-only text nodes are not representable in canonical form and
// do not survive a reload — they carry no policy-relevant content.)
//
// Every journal entry records the store generation and the touched
// document's generation after the mutation, and OpenStore restores both
// counters, so generation-keyed decision caches built over a reopened
// store observe the same (name, generation) → state mapping as before the
// restart.

// storeJournal is one journal entry.
type storeJournal struct {
	Op     string // "put" | "remove" | "addset"
	Doc    string
	Set    string `json:",omitempty"`
	XML    string `json:",omitempty"`
	Gen    uint64
	DocGen uint64
}

// storeSnap is a checkpoint snapshot of the whole store.
type storeSnap struct {
	Gen     uint64
	DocGens map[string]uint64
	Docs    map[string]string
	Sets    map[string][]string
}

// OpenStore recovers a document store from w and wires it to keep
// journaling there. The caller owns w's lifecycle but must not use it
// directly afterwards. Recovery stages into one private version published
// at the end, stamped with the last replayed LSN, so post-recovery
// mutations continue the version sequence exactly where the journal ends.
//
// seclint:locked s is not yet published; no other goroutine holds a reference before OpenStore returns
func OpenStore(w *wal.WAL) (*Store, error) {
	payload, snapLSN, _ := w.Snapshot()
	v, err := stageSnap(snapLSN, payload)
	if err != nil {
		return nil, err
	}
	err = w.Replay(func(lsn uint64, payload []byte) error {
		return applyJournal(v, lsn, payload, true)
	})
	if err != nil {
		return nil, err
	}
	s := newStoreAt(v)
	s.w = w
	return s, nil
}

// applyJournal applies the journal entry at lsn to v and stamps v with it
// — the one place a journal op becomes a state change, for restart
// (OpenStore) and replication (ApplyReplicated) alike. v is private to the
// caller; owned says its inner set maps are private too (recovery staging),
// so membership is linked in place instead of copy-on-write.
func applyJournal(v *storeVersion, lsn uint64, payload []byte, owned bool) error {
	var rec storeJournal
	if err := json.Unmarshal(payload, &rec); err != nil {
		return fmt.Errorf("xmldoc: decode journal at lsn %d: %w", lsn, err)
	}
	switch rec.Op {
	case "put":
		d, err := ParseString(rec.Doc, rec.XML)
		if err != nil {
			return fmt.Errorf("xmldoc: replay put %s: %w", rec.Doc, err)
		}
		v.docs[rec.Doc] = d
	case "remove":
		delete(v.docs, rec.Doc)
		v.unlinkDoc(rec.Doc)
	case "addset":
		if owned {
			v.linkOwned(rec.Set, rec.Doc)
		} else {
			v.link(rec.Set, rec.Doc)
		}
	default:
		return fmt.Errorf("xmldoc: unknown journal op %q at lsn %d", rec.Op, lsn)
	}
	v.docGens[rec.Doc] = rec.DocGen
	v.gen = rec.Gen
	v.lsn = int64(lsn)
	return nil
}

// stageSnap decodes the checkpoint snapshot taken at lsn into a private
// staging version. An empty payload is the empty store.
func stageSnap(lsn uint64, payload []byte) (*storeVersion, error) {
	v := newStoreVersion()
	v.lsn = int64(lsn)
	if len(payload) == 0 {
		return v, nil
	}
	var snap storeSnap
	if err := json.Unmarshal(payload, &snap); err != nil {
		return nil, fmt.Errorf("xmldoc: decode snapshot: %w", err)
	}
	for name, xml := range snap.Docs {
		d, err := ParseString(name, xml)
		if err != nil {
			return nil, fmt.Errorf("xmldoc: restore %s: %w", name, err)
		}
		v.docs[name] = d
	}
	for set, docs := range snap.Sets {
		for _, doc := range docs {
			v.linkOwned(set, doc)
		}
	}
	for name, g := range snap.DocGens {
		v.docGens[name] = g
	}
	v.gen = snap.Gen
	return v, nil
}

// Checkpoint writes a snapshot of the store and truncates the journal at
// the snapshotted version's LSN. The checkpoint is fuzzy: it pins the
// current version and holds no lock while encoding, so mutations keep
// committing while the snapshot streams out. Because every journal entry
// is one complete mutation, the snapshot at LSN n plus the journal tail
// above n reconstructs every later state — nothing blocks, nothing tears.
func (s *Store) Checkpoint() error {
	w, err := s.backend()
	if err != nil {
		return err
	}
	var pin mvcc.Pin[storeVersion]
	s.versions.Pin(&pin)
	defer pin.Release()
	v := pin.Value()
	snap := storeSnap{
		Gen:     v.gen,
		DocGens: make(map[string]uint64, len(v.docGens)),
		Docs:    make(map[string]string, len(v.docs)),
		Sets:    make(map[string][]string, len(v.sets)),
	}
	for name, g := range v.docGens {
		snap.DocGens[name] = g
	}
	for name, d := range v.docs {
		snap.Docs[name] = d.Canonical()
	}
	for set, docs := range v.sets {
		for doc := range docs {
			snap.Sets[set] = append(snap.Sets[set], doc)
		}
	}
	payload, err := json.Marshal(&snap)
	if err != nil {
		return fmt.Errorf("xmldoc: encode snapshot: %w", err)
	}
	if err := w.CheckpointAt(payload, uint64(v.lsn)); err != nil {
		s.mu.Lock()
		s.err = err
		s.mu.Unlock()
		return err
	}
	return nil
}

// backend returns the healthy journal backend a checkpoint streams to.
func (s *Store) backend() (*wal.WAL, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.w == nil {
		return nil, fmt.Errorf("xmldoc: checkpoint: no durable backend")
	}
	return s.w, s.err
}

// Err returns the sticky journal error, if any.
func (s *Store) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// journalLocked appends a journal entry for a mutation that already
// happened and returns its LSN — the stamp for the version the mutation
// installs. It returns 0 (keep the predecessor's stamp) for in-memory
// stores and on failure; failures stick.
//
// seclint:locked caller holds s.mu
func (s *Store) journalLocked(rec *storeJournal) int64 {
	if s.w == nil || s.err != nil {
		return 0
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		s.err = err
		return 0
	}
	lsn, err := s.w.Append(payload)
	if err != nil {
		s.err = err
		return 0
	}
	return int64(lsn)
}
