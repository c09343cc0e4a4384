package replication

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"webdbsec/internal/credential"
	"webdbsec/internal/secchan"
)

// link is one leader→follower replica connection: a pump reads the WAL
// through a cursor and fills a bounded outbox, a writer drains the outbox
// onto the channel, and the accepting goroutine reads acks. The outbox is
// the back-pressure boundary — a follower that cannot drain it in time is
// evicted rather than allowed to wedge the leader or grow its memory.
type link struct {
	node   string
	ch     *secchan.Channel
	outbox chan []byte
	done   chan struct{}

	mu    sync.Mutex
	heard time.Time // seclint:guardedby mu

	closeOnce sync.Once
}

func (l *link) close() {
	l.closeOnce.Do(func() {
		close(l.done)
		l.ch.Close()
	})
}

func (l *link) touch() {
	l.mu.Lock()
	l.heard = time.Now()
	l.mu.Unlock()
}

func (l *link) lastHeard() time.Time {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.heard
}

// acceptLoop serves inbound connections: election polls and follower
// joins.
func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.listener.Accept()
		if err != nil {
			return
		}
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.serveConn(conn)
		}()
	}
}

// serveConn handshakes an inbound connection and dispatches on its first
// message.
func (n *Node) serveConn(conn net.Conn) {
	cfg := secchan.Config{
		HandshakeTimeout: n.cfg.dialTimeout(),
		// A live replica link is kept warm by follower acks at heartbeat
		// pace; generous slack on top of the election timeout means the
		// follower's side always times out first and re-elects. The write
		// timeout is equally generous on purpose: the bounded outbox (see
		// enqueue) is the slow-follower policy, and it must fire before the
		// transport gives up so evictions are observable as evictions.
		ReadTimeout:  4 * n.cfg.electionTimeout(),
		WriteTimeout: 4 * n.cfg.electionTimeout(),
	}
	ch, err := secchan.ServerConfig(conn, n.cfg.Identity, cfg)
	if err != nil {
		conn.Close()
		return
	}
	defer ch.Close()
	raw, err := ch.Receive()
	if err != nil {
		return
	}
	m, err := decodeMsg(raw)
	if err != nil {
		return
	}
	switch m.T {
	case "state":
		n.serveState(ch, m)
	case "vote":
		n.serveVote(ch, m)
	case "join":
		n.serveJoin(ch, m)
	}
}

// becomeLeaderLocked promotes this node after a won vote round. The
// commit watermark does NOT jump to the leader's durable position: the
// inherited tail may contain records no quorum ever held, and declaring
// them committed before quorum replication is the previous-term-commit
// hazard (a successor leader elected without them would regress
// acknowledged state). Instead the promotion records epochStart = the
// durable tail, and advanceCommitLocked refuses to move the watermark
// until a quorum of the new epoch acks at least that position — the
// moral equivalent of Raft committing prior-term entries only through a
// quorum-replicated current-term entry. The local tail is still applied
// (Promote() below needs the materialized state), but readers go through
// the commit gate, not the applier position.
//
// seclint:locked caller holds n.mu (released/reacquired around the tail apply and promote hook)
func (n *Node) becomeLeaderLocked() {
	// Drain the commit pipeline first so the durable watermark covers the
	// whole log; the tail application below must reach LastLSN for the
	// promote hook's Promote() to succeed.
	if err := n.cfg.WAL.Sync(); err != nil {
		n.logf("promote: wal sync: %v", err)
	}
	durable := n.cfg.WAL.DurableLSN()
	wonEpoch := n.epoch
	n.epochStart = durable
	// seclint:locked the unlock/relock below is in applyToLocked and the hook; the lock is held here
	n.tailEpoch = wonEpoch
	if err := n.saveMetaLocked(); err != nil {
		// A leader whose tail-epoch stamp is not durable could lose a
		// future election to a stale tail; abandon the promotion (the
		// node stays Candidate and the cluster retries).
		n.logf("promote: cannot persist tail epoch, abandoning leadership: %v", err)
		return
	}
	// Apply the local tail while still wearing the follower applier —
	// after the role flips, applyCommittedLocked stops feeding the applier
	// (the promoted database produces the records; re-applying them would
	// double them).
	if err := n.applyToLocked(durable); err != nil {
		n.logf("promote: apply tail: %v", err)
	}
	if n.epoch != wonEpoch || n.stopped {
		// The tail apply releases the lock around applier calls; a newer
		// election may have moved the node on in that window.
		n.logf("promote: epoch advanced to %d during promotion of %d, abandoning", n.epoch, wonEpoch)
		return
	}
	n.role = LeaderRole
	n.leaderID = n.cfg.NodeID
	n.acked = make(map[string]uint64)
	n.leaderAt = time.Now()
	n.broadcastLocked()
	n.logf("became leader at epoch %d, commit %d, epoch start %d", n.epoch, n.commit, n.epochStart)
	if n.cfg.OnLeader != nil {
		// The hook runs without the lock: it may call back into the node.
		n.mu.Unlock()
		n.cfg.OnLeader()
		n.mu.Lock()
	}
}

// runLeader holds leadership until the node is fenced, observes a higher
// epoch, or stops. The loop's only job is the fencing check: a leader
// that cannot hear a quorum of the cluster within the election timeout
// steps down and fails its waiting committers — it must not acknowledge
// writes a majority partition may already be electing away from.
func (n *Node) runLeader() {
	ticker := time.NewTicker(n.cfg.heartbeat())
	defer ticker.Stop()
	for {
		select {
		case <-n.stopCtx.Done():
			return
		case <-ticker.C:
		}
		// The WAL's group commit is committer-driven: records enqueued
		// without a durability waiter (e.g. DDL appends) sit in the queue
		// until someone drives a flush. The leader is that someone — every
		// heartbeat it drains the pipeline so the durable watermark (and
		// with it the replica stream and the commit index) cannot stall
		// behind an un-awaited append.
		if err := n.cfg.WAL.Sync(); err != nil {
			n.logf("leader wal sync: %v", err)
		}
		n.mu.Lock()
		if n.role != LeaderRole || n.stopped {
			n.mu.Unlock()
			return
		}
		// Leader-side durability can advance between acks (group commit
		// flushes); fold it into the watermark continuously.
		n.advanceCommitLocked()
		// seclint:locked the unlock above is in the returning branch; the lock is still held here
		if !n.quorumHeardLocked(time.Now().Add(-n.cfg.electionTimeout())) {
			// seclint:locked the unlock above is in the returning branch; the lock is still held here
			n.failovers++
			n.stepDownLocked("quorum lost")
			n.mu.Unlock()
			return
		}
		n.mu.Unlock()
		if err := n.applyCommitted(); err != nil {
			n.logf("leader apply: %v", err)
		}
	}
}

// quorumHeardLocked reports whether a quorum heard from this leader after
// cutoff: itself, and the followers it heard from since — by a poll it
// answered as leader, a join request that passed the credential check, or
// a stream ack. Promotion counts as hearing from the electing quorum, so
// fencing begins one election timeout after it. Polls and joins count
// because a loaded join (dial, handshake, credential check, log hash, join
// ack) can outlast that grace before its stream's first ack; a follower
// whose poll found this leader refuses other candidates for an election
// timeout (leaderFreshLocked), so the count claims no more than it grants.
//
// seclint:locked caller holds n.mu
func (n *Node) quorumHeardLocked(cutoff time.Time) bool {
	if n.leaderAt.After(cutoff) {
		return true
	}
	reachable := 1 // self
	for id, at := range n.polledAt {
		if l := n.links[id]; l != nil && l.lastHeard().After(at) {
			at = l.lastHeard()
		}
		if at.After(cutoff) {
			reachable++
		}
	}
	return reachable >= n.quorum
}

// leaderFreshLocked reports whether this node stays with the leadership of
// its epoch: as the leader, a quorum heard from it within the election
// timeout; otherwise it heard from that leadership (heardAt) within it.
// Such a node neither grants a vote for a higher epoch nor adopts one from
// a vote request, so a node that polled before the current leader's win
// showed cannot unseat it (Ongaro's disruptive server). A dead leader sends
// nothing, so once the timeout has passed votes are granted as before.
//
// seclint:locked caller holds n.mu
func (n *Node) leaderFreshLocked() bool {
	cutoff := time.Now().Add(-n.cfg.electionTimeout())
	if n.role == LeaderRole {
		return n.quorumHeardLocked(cutoff)
	}
	return n.heardAt.After(cutoff)
}

// serveJoin runs the leader side of the authenticated catch-up handshake,
// then streams to the follower until the link dies.
func (n *Node) serveJoin(ch *secchan.Channel, m *msg) {
	n.mu.Lock()
	if m.Epoch > n.epoch {
		// The joiner has seen a newer election than our leadership.
		n.epoch = m.Epoch
		if n.role == LeaderRole {
			n.failovers++
			n.stepDownLocked("higher epoch in join request")
		}
		if err := n.saveMetaLocked(); err != nil {
			n.logf("join: %v", err)
		}
	}
	role, epoch, leader, epochStart := n.role, n.epoch, n.leaderID, n.epochStart
	n.mu.Unlock()
	if role != LeaderRole {
		n.reject(ch, "not leader", leader, epoch)
		return
	}
	if !n.checkJoinWallet(m.Wallet) {
		n.logf("join %s: credential check failed", m.Node)
		n.reject(ch, "credential check failed", leader, epoch)
		return
	}
	n.mu.Lock()
	if n.role == LeaderRole && n.epoch == epoch {
		n.polledAt[m.Node] = time.Now()
	}
	n.mu.Unlock()

	// Negotiate the catch-up plan from the two log positions.
	w := n.cfg.WAL
	_, leaderSnapLSN, _ := w.Snapshot()
	leaderLast := w.DurableLSN()
	from := leaderSnapLSN
	if m.SnapLSN > from {
		from = m.SnapLSN
	}
	common := m.LastLSN
	if leaderLast < common {
		common = leaderLast
	}
	resp := &msg{T: "joinResp", Node: n.cfg.NodeID, Epoch: epoch, Commit: n.CommitLSN(), EpochStart: epochStart}
	if n.cfg.ExportAuthKeys != nil {
		// Ship the mint verify-key set with the join plan so the follower
		// can verify leader-minted auth tokens before a single WAL byte
		// arrives.
		resp.Keys, resp.KeysGen = n.cfg.ExportAuthKeys()
	}
	if m.LastLSN < leaderSnapLSN || common < from {
		// No overlapping span to cross-check: the follower's history is
		// compacted away (or it is empty while we checkpointed) — resync.
		resp.Plan = "resync"
	} else {
		hash, err := hashRange(w, from, common)
		if err != nil {
			n.logf("join %s: hash (%d,%d]: %v", m.Node, from, common, err)
			n.reject(ch, "hash computation failed", leader, epoch)
			return
		}
		resp.From, resp.Common, resp.Hash = from, common, hash
		if m.LastLSN > common {
			resp.Plan = "truncate"
		} else {
			resp.Plan = "stream"
		}
	}
	if err := n.send(ch, resp); err != nil {
		return
	}
	raw, err := ch.Receive()
	if err != nil {
		return
	}
	ack, err := decodeMsg(raw)
	if err != nil || ack.T != "joinAck" {
		return
	}
	start := resp.Common
	if resp.Plan == "resync" || !ack.OK {
		// Divergence beyond the hash check (or compaction): ship a full
		// snapshot, integrity-hashed, then stream from its LSN.
		lsn, err := n.sendSnapshot(ch, epoch)
		if err != nil {
			n.logf("join %s: snapshot: %v", m.Node, err)
			return
		}
		start = lsn
	}
	n.logf("join %s: plan %s, streaming from %d", m.Node, resp.Plan, start)
	n.stream(ch, m.Node, start, epoch)
}

// checkJoinWallet verifies the follower's wallet against the join policy.
// The trust-brokerage rule: a replica is a counterparty that must earn
// trust before it receives a single byte of data.
func (n *Node) checkJoinWallet(raw json.RawMessage) bool {
	if n.cfg.Verifier == nil && n.cfg.JoinPolicy == nil {
		return true
	}
	if n.cfg.Verifier == nil || n.cfg.JoinPolicy == nil || len(raw) == 0 {
		return false
	}
	var w credential.Wallet
	if err := json.Unmarshal(raw, &w); err != nil {
		return false
	}
	return n.cfg.JoinPolicy.Eval(n.cfg.Verifier.Valid(&w))
}

func (n *Node) reject(ch *secchan.Channel, reason, leader string, epoch uint64) {
	_ = n.send(ch, &msg{T: "joinResp", Plan: "reject", Reason: reason, Leader: leader, Epoch: epoch, Node: n.cfg.NodeID})
}

func (n *Node) send(ch *secchan.Channel, m *msg) error {
	raw, err := encodeMsg(m)
	if err != nil {
		return err
	}
	return ch.Send(raw)
}

// sendSnapshot ships the current checkpoint snapshot (or an empty one at
// the log's snapshot boundary) and waits for the follower's ack. Returns
// the LSN streaming resumes from.
func (n *Node) sendSnapshot(ch *secchan.Channel, epoch uint64) (uint64, error) {
	data, lsn, _ := n.cfg.WAL.Snapshot()
	m := &msg{T: "snap", Node: n.cfg.NodeID, Epoch: epoch, LSN: lsn, SnapData: data, Hash: snapHash(data, lsn)}
	if err := n.send(ch, m); err != nil {
		return 0, err
	}
	raw, err := ch.Receive()
	if err != nil {
		return 0, err
	}
	ack, err := decodeMsg(raw)
	if err != nil {
		return 0, err
	}
	if ack.T != "ack" || ack.LSN != lsn {
		return 0, fmt.Errorf("replication: snapshot ack %q at %d, want ack at %d", ack.T, ack.LSN, lsn)
	}
	return lsn, nil
}

// stream is the live shipping loop: a cursor pump fills the bounded
// outbox, a writer goroutine drains it, and this goroutine reads acks.
// It returns when the link dies or the node loses leadership.
func (n *Node) stream(ch *secchan.Channel, node string, start uint64, epoch uint64) {
	l := &link{
		node:   node,
		ch:     ch,
		outbox: make(chan []byte, n.cfg.sendQueue()),
		done:   make(chan struct{}),
	}
	l.touch()

	n.mu.Lock()
	if n.role != LeaderRole || n.epoch != epoch || n.stopped {
		n.mu.Unlock()
		return
	}
	// seclint:locked the unlock above is in the returning branch; the lock is still held here
	if old, ok := n.links[node]; ok {
		old.close() // a rejoin replaces the stale link
	}
	// seclint:locked the unlock above is in the returning branch; the lock is still held here
	n.links[node] = l
	// The handshake position is NOT seeded as an ack: only acks from the
	// live stream count toward commit, because the follower durably stamps
	// its tail epoch before sending those (advanceTailEpoch) — a
	// handshake-seeded position would let an unstamped log complete a
	// commit quorum that a later election could then order below a stale
	// tail. The first heartbeat ack arrives within a heartbeat interval.
	// seclint:locked the unlock above is in the returning branch; the lock is still held here
	n.acked[node] = 0
	n.mu.Unlock()
	defer func() {
		l.close()
		n.mu.Lock()
		if n.links[node] == l {
			delete(n.links, node)
			delete(n.acked, node)
		}
		n.mu.Unlock()
	}()

	n.wg.Add(2)
	go func() { // writer: outbox → channel
		defer n.wg.Done()
		for {
			select {
			case <-l.done:
				return
			case raw := <-l.outbox:
				if err := ch.Send(raw); err != nil {
					// A send that hits the write timeout means the follower
					// stopped draining the transport for several election
					// timeouts — the same slow-follower condition the bounded
					// outbox guards against, surfacing one buffer further
					// down (the kernel socket instead of the outbox). Count
					// it as an eviction so the policy is observable no
					// matter which buffer fills first.
					var ne net.Error
					if errors.As(err, &ne) && ne.Timeout() {
						n.mu.Lock()
						n.evictions++
						n.mu.Unlock()
						n.logf("evicting slow follower %s: transport write timeout", l.node)
					}
					l.close()
					return
				}
			}
		}
	}()
	go n.pump(l, start, epoch) // pump: WAL cursor → outbox

	// Ack reader (this goroutine).
	for {
		raw, err := ch.Receive()
		if err != nil {
			return
		}
		m, err := decodeMsg(raw)
		if err != nil || m.T != "ack" {
			return
		}
		l.touch()
		n.mu.Lock()
		if n.links[node] != l || n.role != LeaderRole {
			n.mu.Unlock()
			return
		}
		// seclint:locked the unlock above is in the returning branch; the lock is still held here
		if m.LSN > n.acked[node] {
			// seclint:locked the unlock above is in the returning branch; the lock is still held here
			n.acked[node] = m.LSN
			n.advanceCommitLocked()
		}
		n.mu.Unlock()
		if err := n.applyCommitted(); err != nil {
			n.logf("leader apply: %v", err)
		}
	}
}

// pump reads the leader WAL from start and enqueues record batches and
// heartbeats. An outbox that stays full for a heartbeat interval evicts
// the follower: bounded queues, never unbounded buffering.
func (n *Node) pump(l *link, start uint64, epoch uint64) {
	defer n.wg.Done()
	cur, err := n.cfg.WAL.OpenCursor(start)
	if err != nil {
		n.logf("pump %s: %v", l.node, err)
		l.close()
		return
	}
	watch := n.cfg.WAL.Watch()
	defer n.cfg.WAL.Unwatch(watch)
	ticker := time.NewTicker(n.cfg.heartbeat())
	defer ticker.Stop()
	lastCommit := uint64(0)
	// Mint-key shipping: heartbeats re-ship the verify-key set whenever
	// the keyring generation moves past what this link has sent. Starting
	// at zero means the first heartbeat always carries the set — the
	// joinResp already did, but a redundant install is idempotent and
	// covers a rotation racing the handshake.
	sentKeysGen := uint64(0)
	authKeys := func(m *msg) {
		if n.cfg.ExportAuthKeys == nil {
			return
		}
		if data, gen := n.cfg.ExportAuthKeys(); gen != sentKeysGen {
			m.Keys, m.KeysGen = data, gen
			sentKeysGen = gen
		}
	}
	for {
		// Drain the cursor into batches.
		for {
			var recs []wireRec
			var bytes int
			for len(recs) < n.cfg.batchRecords() && bytes < secchan.MaxRecord/2 {
				rec, ok, err := cur.Next()
				if err != nil {
					n.logf("pump %s: cursor: %v", l.node, err)
					l.close()
					return
				}
				if !ok {
					break
				}
				recs = append(recs, wireRec{LSN: rec.LSN, Payload: rec.Payload})
				bytes += len(rec.Payload)
			}
			if len(recs) == 0 {
				break
			}
			lastCommit = n.CommitLSN()
			raw, err := encodeMsg(&msg{T: "recs", Node: n.cfg.NodeID, Epoch: epoch, Recs: recs, Commit: lastCommit})
			if err != nil {
				l.close()
				return
			}
			if !n.enqueue(l, raw) {
				return
			}
		}
		// Idle: wake on new WAL bytes, commit movement, or heartbeat.
		n.mu.Lock()
		commitCh := n.commitCh
		commit := n.commit
		leading := n.role == LeaderRole && n.epoch == epoch
		n.mu.Unlock()
		if !leading {
			l.close()
			return
		}
		if commit != lastCommit {
			lastCommit = commit
			hb := &msg{T: "hb", Node: n.cfg.NodeID, Epoch: epoch, Commit: commit}
			authKeys(hb)
			raw, err := encodeMsg(hb)
			if err == nil && !n.enqueue(l, raw) {
				return
			}
			continue
		}
		select {
		case <-l.done:
			return
		case <-n.stopCtx.Done():
			return
		case <-watch:
		case <-commitCh:
		case <-ticker.C:
			hb := &msg{T: "hb", Node: n.cfg.NodeID, Epoch: epoch, Commit: commit}
			authKeys(hb)
			raw, err := encodeMsg(hb)
			if err == nil && !n.enqueue(l, raw) {
				return
			}
		}
	}
}

// enqueue offers raw to the link's bounded outbox; a follower whose queue
// stays full for a heartbeat interval is evicted (slow-follower policy).
func (n *Node) enqueue(l *link, raw []byte) bool {
	select {
	case l.outbox <- raw:
		return true
	default:
	}
	select {
	case l.outbox <- raw:
		return true
	case <-l.done:
		return false
	case <-time.After(n.cfg.heartbeat()):
		n.mu.Lock()
		n.evictions++
		n.mu.Unlock()
		n.logf("evicting slow follower %s", l.node)
		l.close()
		return false
	}
}
