package xmldoc

// Replica-side replay for the document store: the replication layer ships
// the leader's journal entries (the same storeJournal frames persist.go
// writes) and a follower applies them here, one at a time, without
// journaling again — the replication layer owns the follower's local WAL.
// Generation counters travel inside every entry, so a generation-keyed
// decision cache on the replica observes the same (name, generation) →
// state mapping as on the leader.

// ApplyReplicated applies one shipped journal entry. Entries must arrive
// in the order the leader journaled them. Each entry installs a new store
// version stamped with the shipped LSN, so the replica's version sequence
// mirrors the leader's and replica readers pin snapshots exactly as
// leader readers do.
func (s *Store) ApplyReplicated(lsn uint64, payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := s.versions.Load().clone()
	if err := applyJournal(v, lsn, payload, false); err != nil {
		return err
	}
	s.versions.Install(*v)
	return nil
}

// RestoreReplicated replaces the store's contents from a leader checkpoint
// snapshot (full resync). The replacement is one version install: readers
// holding pinned snapshots keep their pre-resync view until they release.
func (s *Store) RestoreReplicated(lsn uint64, snapshot []byte) error {
	// An empty snapshot resets to genesis (a never-checkpointed leader
	// resyncs divergent replicas by wiping and re-streaming its log).
	v, err := stageSnap(lsn, snapshot)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// A resync may rewind the LSN (divergence repair), so v is published
	// as stamped, not through installLocked's monotone clamp.
	s.versions.Install(*v)
	return nil
}
