package replication

import (
	"encoding/json"
	"fmt"

	"webdbsec/internal/wal"
)

// metaName is the election-state file inside Config.MetaStore. The name
// deliberately matches nothing the WAL recognises, so the store can share
// the WAL's own wal.FS root: wal.Open ignores unknown names.
const metaName = "replmeta"

// durableMeta is the election state a node must not forget across a
// restart. It is the replication analog of Raft's persisted
// (currentTerm, votedFor) pair plus the last log term:
//
//   - VotedEpoch: the highest epoch this node granted a vote in — itself
//     included. One grant per epoch is what makes an epoch claimable by
//     at most one leader; a node that forgot its grant could vote twice
//     in the same epoch after a crash and hand two candidates the same
//     quorum.
//   - TailEpoch: the epoch of the leadership this node's log tail is a
//     verified full prefix of (stamped at promotion, or on a follower
//     once its durable position covers the leader's epoch-start LSN).
//     Elections order candidate logs by (TailEpoch, DurableLSN); losing
//     the stamp would let a stale long tail outrank committed records.
//   - Epoch: the highest epoch observed. Strictly monotone; keeping it
//     durable spares a restarted node from re-learning it through a
//     rejected round, but VotedEpoch is what carries the safety. A
//     candidate's own claim raises it only once the candidacy wins.
//
// The file is replaced atomically via wal.FS.WriteTrunc (write temporary,
// fsync, rename), so a crash leaves either the old or the new state.
type durableMeta struct {
	Epoch      uint64 `json:"epoch"`
	VotedEpoch uint64 `json:"voted"`
	TailEpoch  uint64 `json:"tail"`
}

// loadMeta reads the persisted election state from fs, returning the zero
// state when no file exists yet (a brand-new node).
func loadMeta(fs wal.FS) (durableMeta, error) {
	var m durableMeta
	names, err := fs.List()
	if err != nil {
		return m, fmt.Errorf("replication: list meta store: %w", err)
	}
	found := false
	for _, name := range names {
		if name == metaName {
			found = true
			break
		}
	}
	if !found {
		return m, nil
	}
	raw, err := fs.ReadFile(metaName)
	if err != nil {
		return m, fmt.Errorf("replication: read %s: %w", metaName, err)
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		// A corrupt state file must not silently become a fresh one: a
		// node that forgets its vote can grant the same epoch twice.
		return m, fmt.Errorf("replication: %s corrupt: %w", metaName, err)
	}
	return m, nil
}

// saveMetaLocked persists the node's current (epoch, votedEpoch,
// tailEpoch) triple. It MUST succeed before the node acts on the state it
// records — before a vote reply leaves the node, before a promotion
// completes, before a catch-up ack claims the new tail epoch. With no
// MetaStore configured the state is memory-only (Config documents the
// reduced guarantee).
//
// seclint:locked caller holds n.mu
func (n *Node) saveMetaLocked() error {
	if n.cfg.MetaStore == nil {
		return nil
	}
	raw, err := json.Marshal(durableMeta{
		Epoch:      n.epoch,
		VotedEpoch: n.votedEpoch,
		TailEpoch:  n.tailEpoch,
	})
	if err != nil {
		return fmt.Errorf("replication: encode %s: %w", metaName, err)
	}
	if err := n.cfg.MetaStore.WriteTrunc(metaName, raw); err != nil {
		return fmt.Errorf("replication: persist %s: %w", metaName, err)
	}
	return nil
}
