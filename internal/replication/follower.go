package replication

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"webdbsec/internal/secchan"
)

// runFollower dials the leader, performs the authenticated join handshake
// and consumes the replica stream until the link dies (leader silent for
// the election timeout, eviction, connection error) — then the node
// returns to Candidate and re-elects. The node's own WAL position is the
// rejoin anchor: a follower that crashed mid-catch-up resumes exactly at
// its last durable record.
func (n *Node) runFollower(leader string) {
	err := n.followOnce(leader)
	n.mu.Lock()
	if n.role == FollowerRole && n.leaderID == leader {
		n.stepDownLocked("leader link lost")
	}
	n.mu.Unlock()
	if err != nil {
		n.logf("follow %s: %v", leader, err)
	}
}

func (n *Node) followOnce(leader string) error {
	cfg := secchan.Config{
		HandshakeTimeout: n.cfg.dialTimeout(),
		// Heartbeats arrive every HeartbeatInterval; a Receive that trips
		// the election timeout means the leader is dead or partitioned
		// away, and the follower must re-elect.
		ReadTimeout:  n.cfg.electionTimeout(),
		WriteTimeout: n.cfg.electionTimeout(),
	}
	ch, err := n.dial(leader, cfg)
	if err != nil {
		return err
	}
	defer ch.Close()

	w := n.cfg.WAL
	_, snapLSN, _ := w.Snapshot()
	join := &msg{
		T:          "join",
		Node:       n.cfg.NodeID,
		Epoch:      n.Epoch(),
		LastLSN:    w.DurableLSN(),
		AppliedLSN: n.appliedLSN(),
		SnapLSN:    snapLSN,
	}
	if n.cfg.Wallet != nil {
		raw, err := json.Marshal(n.cfg.Wallet)
		if err != nil {
			return fmt.Errorf("replication: encode wallet: %w", err)
		}
		join.Wallet = raw
	}
	if err := n.send(ch, join); err != nil {
		return err
	}
	raw, err := ch.Receive()
	if err != nil {
		return err
	}
	resp, err := decodeMsg(raw)
	if err != nil {
		return err
	}
	if resp.T != "joinResp" {
		return fmt.Errorf("replication: unexpected %q during join", resp.T)
	}
	n.observeEpoch(resp.Epoch)
	n.installAuthKeys(resp.Keys, resp.KeysGen, resp.Epoch)
	switch resp.Plan {
	case "reject":
		return fmt.Errorf("replication: join rejected by %s: %s", leader, resp.Reason)
	case "stream", "truncate":
		ok, err := n.verifyJoinHash(resp)
		if err != nil {
			return err
		}
		if err := n.send(ch, &msg{T: "joinAck", Node: n.cfg.NodeID, OK: ok, LSN: resp.Common}); err != nil {
			return err
		}
		if !ok {
			// Histories diverge (or our applied state is past the leader's
			// truncation point): the leader ships a snapshot next.
			if err := n.receiveSnapshot(ch); err != nil {
				return err
			}
		} else if resp.Plan == "truncate" {
			// Our tail extends past the leader's log: the extra records
			// were never committed (commit requires the leader to hold
			// them), so cutting them cannot lose acknowledged data.
			if err := w.TruncateTo(resp.Common); err != nil {
				return fmt.Errorf("replication: truncate to %d: %w", resp.Common, err)
			}
		}
	case "resync":
		if err := n.send(ch, &msg{T: "joinAck", Node: n.cfg.NodeID, OK: false}); err != nil {
			return err
		}
		if err := n.receiveSnapshot(ch); err != nil {
			return err
		}
	default:
		return fmt.Errorf("replication: unknown join plan %q", resp.Plan)
	}
	return n.consume(ch, leader, resp.Epoch, resp.EpochStart)
}

// appliedLSN reads the applier position.
func (n *Node) appliedLSN() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.applied
}

// observeEpoch adopts a higher epoch seen in leader traffic, durably.
func (n *Node) observeEpoch(e uint64) {
	n.mu.Lock()
	if e > n.epoch {
		n.epoch = e
		if err := n.saveMetaLocked(); err != nil {
			n.logf("observe epoch: %v", err)
		}
	}
	n.mu.Unlock()
}

// advanceTailEpoch stamps this node's log tail with the leader's epoch
// once — and only once — durable, the position the follower is about to
// ack, covers epochStart, the leader's durable LSN at its promotion.
// From that point on the log is a verified full prefix of everything
// leader `epoch` was elected with, so it can never be missing a record
// committed at any earlier epoch; that is exactly the property elections
// rely on when they order candidates by (tail epoch, durable LSN). The
// stamp MUST be durable before any ack at or past epochStart leaves the
// node: the ack may complete a commit quorum, and a voter that then
// forgot its stamp could elect a stale tail over the record it helped
// commit. The caller passes the same durable value it acks — re-reading
// DurableLSN here would race group commit and let an unstamped ack past.
func (n *Node) advanceTailEpoch(epoch, epochStart, durable uint64) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.tailEpoch >= epoch || durable < epochStart {
		return nil
	}
	prev := n.tailEpoch
	n.tailEpoch = epoch
	if err := n.saveMetaLocked(); err != nil {
		n.tailEpoch = prev
		return fmt.Errorf("replication: persist tail epoch %d: %w", epoch, err)
	}
	return nil
}

// installAuthKeys hands a shipped mint verify-key set to the deployment
// hook, ordered by (leader epoch, keyring generation): a set from an
// older leadership, or an older generation of the same one, is dropped —
// heartbeats from a stale leader must never roll the key set back.
func (n *Node) installAuthKeys(data []byte, gen, epoch uint64) {
	if n.cfg.InstallAuthKeys == nil || len(data) == 0 {
		return
	}
	n.mu.Lock()
	stale := epoch < n.authKeysEpoch || (epoch == n.authKeysEpoch && gen <= n.authKeysGen)
	if !stale {
		n.authKeysEpoch, n.authKeysGen = epoch, gen
	}
	n.mu.Unlock()
	if stale {
		return
	}
	if err := n.cfg.InstallAuthKeys(data); err != nil {
		n.logf("install auth key set gen %d: %v", gen, err)
	}
}

// verifyJoinHash recomputes the chain hash over the overlapping span and
// compares it to the leader's. A match proves the shared prefix is
// byte-identical; a mismatch (divergence) or an applied position past the
// truncation point forces a full resync instead.
func (n *Node) verifyJoinHash(resp *msg) (bool, error) {
	if n.appliedLSN() > resp.Common {
		// We materialized state past the leader's log end; truncation
		// cannot un-apply it, only a snapshot can.
		return false, nil
	}
	local, err := hashRange(n.cfg.WAL, resp.From, resp.Common)
	if err != nil {
		return false, nil // unreadable span: treat as divergence, resync
	}
	return bytes.Equal(local, resp.Hash), nil
}

// receiveSnapshot installs a leader snapshot: hash-verified, then written
// into the local WAL as its new origin, then handed to the applier.
func (n *Node) receiveSnapshot(ch *secchan.Channel) error {
	raw, err := ch.Receive()
	if err != nil {
		return err
	}
	m, err := decodeMsg(raw)
	if err != nil {
		return err
	}
	if m.T != "snap" {
		return fmt.Errorf("replication: expected snapshot, got %q", m.T)
	}
	if !bytes.Equal(snapHash(m.SnapData, m.LSN), m.Hash) {
		return fmt.Errorf("replication: snapshot hash mismatch at lsn %d", m.LSN)
	}
	if err := n.cfg.WAL.InstallSnapshot(m.SnapData, m.LSN); err != nil {
		return fmt.Errorf("replication: install snapshot: %w", err)
	}
	n.mu.Lock()
	n.applyCur = nil
	n.applied = m.LSN
	if m.LSN > n.commit {
		n.commit = m.LSN
		n.broadcastLocked()
	}
	n.mu.Unlock()
	if n.cfg.Applier != nil {
		if err := n.cfg.Applier.Restore(m.LSN, m.SnapData); err != nil {
			return fmt.Errorf("replication: restore snapshot: %w", err)
		}
	}
	return n.send(ch, &msg{T: "ack", Node: n.cfg.NodeID, LSN: m.LSN})
}

// consume is the follower's stream loop: append shipped records to the
// local WAL (the Append return is the durability verdict), stamp the
// tail epoch once the durable position covers the leader's epoch start,
// ack the position, and apply everything the commit watermark covers.
// The stamp strictly precedes the ack — see advanceTailEpoch.
func (n *Node) consume(ch *secchan.Channel, leader string, epoch, epochStart uint64) error {
	for {
		n.mu.Lock()
		live := n.role == FollowerRole && n.leaderID == leader && !n.stopped
		n.mu.Unlock()
		if !live {
			return nil
		}
		raw, err := ch.Receive()
		if err != nil {
			if err == io.EOF {
				return fmt.Errorf("replication: leader closed the link")
			}
			return err
		}
		m, err := decodeMsg(raw)
		if err != nil {
			return err
		}
		if m.Epoch < n.Epoch() {
			return fmt.Errorf("replication: stale leader epoch %d < %d", m.Epoch, n.Epoch())
		}
		n.observeEpoch(m.Epoch)
		n.mu.Lock()
		n.heardAt = time.Now()
		n.mu.Unlock()
		n.installAuthKeys(m.Keys, m.KeysGen, m.Epoch)
		switch m.T {
		case "recs":
			for _, rec := range m.Recs {
				lsn, err := n.cfg.WAL.Append(rec.Payload)
				if err != nil {
					return fmt.Errorf("replication: append shipped lsn %d: %w", rec.LSN, err)
				}
				if lsn != rec.LSN {
					return fmt.Errorf("replication: shipped lsn %d landed at %d", rec.LSN, lsn)
				}
			}
			durable := n.cfg.WAL.DurableLSN()
			if err := n.advanceTailEpoch(epoch, epochStart, durable); err != nil {
				return err
			}
			if err := n.setCommit(m.Commit); err != nil {
				return err
			}
			if err := n.send(ch, &msg{T: "ack", Node: n.cfg.NodeID, LSN: durable}); err != nil {
				return err
			}
		case "hb":
			durable := n.cfg.WAL.DurableLSN()
			if err := n.advanceTailEpoch(epoch, epochStart, durable); err != nil {
				return err
			}
			if err := n.setCommit(m.Commit); err != nil {
				return err
			}
			if err := n.send(ch, &msg{T: "ack", Node: n.cfg.NodeID, LSN: durable}); err != nil {
				return err
			}
		default:
			return fmt.Errorf("replication: unexpected %q on replica stream", m.T)
		}
	}
}
