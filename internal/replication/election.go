package replication

import (
	"io"
	"time"

	"webdbsec/internal/secchan"
)

// peerState is one node's answer to an election poll.
type peerState struct {
	node    string
	epoch   uint64
	tail    uint64
	durable uint64
	role    string
	leader  string
}

// better orders leader candidates: later tail epoch first, then durable
// LSN, then node ID as the final deterministic tie-break. Tail epoch
// dominates on purpose — a log that is a verified prefix of a newer
// leadership can never be missing older committed records, while a
// longer log whose tail was written under an old epoch may be nothing
// but an uncommitted stranded tail. Comparing durable LSNs alone would
// let exactly that tail win.
func better(a, b peerState) bool {
	if a.tail != b.tail {
		return a.tail > b.tail
	}
	if a.durable != b.durable {
		return a.durable > b.durable
	}
	return a.node > b.node
}

// runElection drives one election round. It has two phases:
//
// Poll: every peer is asked for its state. Fewer than a quorum reachable
// means this node is (possibly) in a minority partition and stays
// fenced. An established leader at the highest observed epoch is joined
// outright — following it beats churning the epoch.
//
// Candidacy: otherwise the node nominates itself only if its log is the
// best among the reachable states by (tail epoch, durable LSN, node ID)
// — a cheap prefilter that keeps obviously-outranked nodes from
// disrupting the round — and then claims epoch maxEpoch+1 through an
// explicit quorum vote. Every voter (the candidate included) durably
// records the grant before it counts, and grants at most one vote per
// epoch, so at most one leader can ever hold a given epoch: two
// candidates that each reach a quorum through asymmetric partitions
// necessarily share a voter, and that voter granted only one of them.
// A voter also refuses any candidate whose (tail epoch, durable LSN) is
// behind its own, so the winner's log contains every committed record
// of every earlier epoch — quorum intersection hands the vote round at
// least one member of every commit quorum, and that member's tail-epoch
// stamp (see advanceTailEpoch) outranks every stale tail.
func (n *Node) runElection() {
	n.mu.Lock()
	n.elections++
	selfEpoch := n.epoch
	selfTail := n.tailEpoch
	n.mu.Unlock()

	self := peerState{
		node:    n.cfg.NodeID,
		epoch:   selfEpoch,
		tail:    selfTail,
		durable: n.cfg.WAL.DurableLSN(),
	}
	states := []peerState{self}
	for id := range n.cfg.Peers {
		st, err := n.pollPeer(id)
		if err != nil {
			n.logf("election: poll %s: %v", id, err)
			continue
		}
		states = append(states, st)
	}
	if len(states) < n.quorum {
		n.logf("election: only %d/%d nodes reachable, staying fenced", len(states), n.quorum)
		return
	}

	// An established leader with a current epoch wins outright — joining
	// it beats re-electing and churning the epoch.
	maxEpoch := selfEpoch
	for _, st := range states {
		if st.epoch > maxEpoch {
			maxEpoch = st.epoch
		}
	}
	for _, st := range states {
		if st.role == LeaderRole.String() && st.epoch == maxEpoch && st.node != n.cfg.NodeID {
			n.mu.Lock()
			if n.role == Candidate && !n.stopped {
				if maxEpoch > n.epoch {
					n.epoch = maxEpoch
					if err := n.saveMetaLocked(); err != nil {
						n.logf("election: %v", err)
					}
				}
				n.role = FollowerRole
				n.leaderID = st.node
				n.heardAt = time.Now()
				n.broadcastLocked()
			}
			n.mu.Unlock()
			n.logf("election: joining existing leader %s at epoch %d", st.node, maxEpoch)
			return
		}
	}

	best := states[0]
	for _, st := range states[1:] {
		if better(st, best) {
			best = st
		}
	}
	if best.node != n.cfg.NodeID {
		// A better-positioned node is reachable; let it claim the epoch.
		// This is only an optimization — the vote round below is what
		// enforces safety — so no role change happens here: the node
		// stays Candidate, and a later poll finds the winner as leader.
		n.logf("election: deferring to better-positioned %s", best.node)
		return
	}

	// Claim a fresh epoch: durably self-vote first, then gather a quorum.
	// The node's own epoch stays where it is until the candidacy wins: a
	// lost candidacy leaves no higher epoch behind to unseat, through the
	// epoch every poll carries, a leader the rest of the group follows,
	// and the node can join that leader next round. The persisted vote is
	// what makes the epoch this candidate's alone.
	n.mu.Lock()
	if n.role != Candidate || n.stopped {
		n.mu.Unlock()
		return
	}
	// seclint:locked the unlock above is in the returning branch; the lock is still held here
	if n.leaderFreshLocked() {
		// This node granted a vote, or heard from its leader, within the
		// election timeout: that leadership may have won since the poll,
		// so the node waits for it to show (or the timeout to pass)
		// rather than claim past it — as it refuses any candidate that
		// would.
		// seclint:locked the unlock above is in the returning branch; the lock is still held here
		epoch := n.epoch
		n.mu.Unlock()
		n.logf("election: the leadership of epoch %d was heard within the election timeout, not claiming", epoch)
		return
	}
	newEpoch := maxEpoch + 1
	// seclint:locked the unlock above is in the returning branch; the lock is still held here
	if newEpoch <= n.votedEpoch {
		// Already voted at newEpoch (e.g. a lost earlier candidacy); the
		// one-grant-per-epoch rule applies to this node too.
		// seclint:locked the unlock above is in the returning branch; the lock is still held here
		newEpoch = n.votedEpoch + 1
	}
	// seclint:locked the unlock above is in the returning branch; the lock is still held here
	startEpoch := n.epoch
	// seclint:locked the unlock above is in the returning branch; the lock is still held here
	n.votedEpoch = newEpoch
	if err := n.saveMetaLocked(); err != nil {
		n.logf("election: cannot persist self-vote, abandoning candidacy: %v", err)
		n.mu.Unlock()
		return
	}
	tail := selfTail
	durable := n.cfg.WAL.DurableLSN()
	n.mu.Unlock()

	votes := 1 // self
	maxSeen := startEpoch
	for id := range n.cfg.Peers {
		if votes >= n.quorum {
			break
		}
		granted, peerEpoch, err := n.requestVote(id, newEpoch, tail, durable)
		if err != nil {
			n.logf("election: vote %s: %v", id, err)
			continue
		}
		if granted {
			votes++
		} else if peerEpoch > maxSeen {
			maxSeen = peerEpoch
		}
	}

	n.mu.Lock()
	defer n.mu.Unlock()
	if n.role != Candidate || n.stopped || n.epoch != startEpoch {
		// A newer election (or a leader's join traffic) moved the node on
		// while the votes were in flight; this candidacy is dead.
		return
	}
	if votes < n.quorum {
		if maxSeen > n.epoch {
			n.epoch = maxSeen
			if err := n.saveMetaLocked(); err != nil {
				n.logf("election: %v", err)
			}
		}
		n.logf("election: %d/%d votes at epoch %d, backing off", votes, n.quorum, newEpoch)
		return
	}
	n.epoch = newEpoch
	n.becomeLeaderLocked()
}

// pollPeer asks one peer for its current state over a short-lived channel.
func (n *Node) pollPeer(id string) (peerState, error) {
	m, err := n.roundTrip(id, &msg{T: "state", Node: n.cfg.NodeID, Epoch: n.Epoch()})
	if err != nil {
		return peerState{}, err
	}
	return peerState{
		node:    m.Node,
		epoch:   m.Epoch,
		tail:    m.TailEpoch,
		durable: m.DurableLSN,
		role:    m.Role,
		leader:  m.Leader,
	}, nil
}

// requestVote asks one peer to grant this node's candidacy for epoch.
// It returns whether the vote was granted and the peer's epoch (which,
// when higher, reveals a newer election the candidate lost to).
func (n *Node) requestVote(id string, epoch, tailEpoch, durable uint64) (bool, uint64, error) {
	m, err := n.roundTrip(id, &msg{
		T:          "vote",
		Node:       n.cfg.NodeID,
		Epoch:      epoch,
		TailEpoch:  tailEpoch,
		DurableLSN: durable,
	})
	if err != nil {
		return false, 0, err
	}
	return m.OK, m.Epoch, nil
}

// roundTrip performs one request/response exchange with a peer over a
// short-lived channel.
func (n *Node) roundTrip(id string, req *msg) (*msg, error) {
	cfg := secchan.Config{
		HandshakeTimeout: n.cfg.dialTimeout(),
		ReadTimeout:      n.cfg.dialTimeout(),
		WriteTimeout:     n.cfg.dialTimeout(),
	}
	ch, err := n.dial(id, cfg)
	if err != nil {
		return nil, err
	}
	defer ch.Close()
	raw, err := encodeMsg(req)
	if err != nil {
		return nil, err
	}
	if err := ch.Send(raw); err != nil {
		return nil, err
	}
	resp, err := ch.Receive()
	if err != nil {
		return nil, err
	}
	return decodeMsg(resp)
}

// serveState answers an election poll on an accepted channel. Observing a
// poll with a higher epoch than a leader's own is evidence of a newer
// election: the leader steps down rather than keep acknowledging writes.
func (n *Node) serveState(ch *secchan.Channel, m *msg) {
	n.mu.Lock()
	if m.Epoch > n.epoch {
		n.epoch = m.Epoch
		if n.role == LeaderRole {
			n.failovers++
			n.stepDownLocked("higher epoch observed in poll")
		}
		if err := n.saveMetaLocked(); err != nil {
			n.logf("state: %v", err)
		}
	}
	if n.role == LeaderRole {
		n.polledAt[m.Node] = time.Now()
	}
	resp := &msg{
		T:          "stateResp",
		Node:       n.cfg.NodeID,
		Epoch:      n.epoch,
		TailEpoch:  n.tailEpoch,
		DurableLSN: n.cfg.WAL.DurableLSN(),
		Role:       n.role.String(),
		Leader:     n.leaderID,
	}
	n.mu.Unlock()
	n.replyAndDrain(ch, resp)
}

// serveVote answers a candidacy request. A node that stays with the
// leadership of its epoch (leaderFreshLocked) refuses a higher epoch
// without adopting it. The two rules that make epochs exclusive and
// elections safe:
//
//   - one grant per epoch, persisted BEFORE the reply leaves the node —
//     a crash between granting and replying must not allow a second
//     same-epoch grant after restart;
//   - no grant to a candidate whose log is behind this node's by
//     (tail epoch, durable LSN) — so a stale-epoch tail, however long,
//     cannot collect a quorum while any voter holds newer-epoch records.
func (n *Node) serveVote(ch *secchan.Channel, m *msg) {
	n.mu.Lock()
	granted := n.voteLocked(m)
	resp := &msg{T: "voteResp", Node: n.cfg.NodeID, Epoch: n.epoch, OK: granted}
	n.mu.Unlock()
	n.replyAndDrain(ch, resp)
}

// voteLocked decides a candidacy request and reports whether it granted
// the vote.
//
// seclint:locked caller holds n.mu
func (n *Node) voteLocked(m *msg) bool {
	if m.Epoch > n.epoch && n.leaderFreshLocked() {
		// The leadership of this node's epoch was heard from within the
		// election timeout: stay with it, and keep the epoch — a candidate
		// that polled before that leader's win showed is the disruptive
		// server, and adopting its epoch would depose the leader anyway.
		n.logf("vote: refused %s epoch %d: the leadership of epoch %d was heard within the election timeout", m.Node, m.Epoch, n.epoch)
		return false
	}
	if m.Epoch > n.epoch {
		n.epoch = m.Epoch
		if n.role == LeaderRole {
			n.failovers++
			n.stepDownLocked("higher epoch in vote request")
		}
		if err := n.saveMetaLocked(); err != nil {
			n.logf("vote: %v", err)
		}
	}
	upToDate := m.TailEpoch > n.tailEpoch ||
		(m.TailEpoch == n.tailEpoch && m.DurableLSN >= n.cfg.WAL.DurableLSN())
	if m.Epoch != n.epoch || m.Epoch <= n.votedEpoch || !upToDate || n.stopped {
		return false
	}
	n.votedEpoch = m.Epoch
	if err := n.saveMetaLocked(); err != nil {
		// An unpersisted grant must not count: roll it back and refuse,
		// or a restart could hand the same epoch out twice.
		n.votedEpoch = 0
		n.logf("vote: cannot persist grant for %s at %d: %v", m.Node, m.Epoch, err)
		return false
	}
	n.heardAt = time.Now()
	n.logf("vote: granted %s epoch %d (tail %d, durable %d)", m.Node, m.Epoch, m.TailEpoch, m.DurableLSN)
	return true
}

// replyAndDrain sends resp and then waits for the peer's close-notify so
// the reply is not torn off by our own teardown racing the write.
func (n *Node) replyAndDrain(ch *secchan.Channel, resp *msg) {
	raw, err := encodeMsg(resp)
	if err != nil {
		return
	}
	_ = ch.Send(raw)
	deadline := time.Now().Add(n.cfg.dialTimeout())
	for time.Now().Before(deadline) {
		if _, err := ch.Receive(); err != nil {
			if err == io.EOF {
				return
			}
			return
		}
	}
}
