// Package replication turns a crash-safe securedb node into a member of a
// small WAL-shipping cluster: one leader accepts writes and streams its
// write-ahead log to followers over secchan; followers replay the records
// through the same recovery paths a restart would use, so a replica is
// always some prefix of the leader's committed history. The paper's
// federated vision (§ cooperative web databases) assumes data outlives any
// single node — this package is that assumption made executable.
//
// Design in one paragraph: epochs order leaderships and are claimed by
// an explicit quorum vote — each node durably grants at most one vote
// per epoch, so at most one leader can ever hold an epoch, and a voter
// refuses any candidate whose log is not at least as up to date as its
// own by (tail epoch, durable LSN); a joining follower is authenticated
// twice (the secchan handshake pins the leader's identity key, and a
// wallet-credential check gates the follower) and its log is
// cross-checked by a chain hash before any WAL byte ships; commits are
// acknowledged to clients only once a quorum of nodes has the record
// durable (WaitCommitted), and a new leader's commit watermark does not
// advance past its inherited value until a quorum has replicated its
// whole promotion-time log — the prior-epoch tail commits through the
// new epoch, never by fiat; a leader that cannot hear a quorum fences
// itself — it steps down and fails its waiting committers rather than
// acknowledge writes it cannot guarantee survived it.
package replication

import (
	"context"
	"crypto/ed25519"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"
	"time"

	"webdbsec/internal/credential"
	"webdbsec/internal/resilience"
	"webdbsec/internal/secchan"
	"webdbsec/internal/wal"
)

// Role is a node's position in the cluster.
type Role int32

// Roles. A node starts as Candidate, and returns to Candidate whenever it
// loses its leader or its quorum.
const (
	Candidate Role = iota
	FollowerRole
	LeaderRole
)

func (r Role) String() string {
	switch r {
	case LeaderRole:
		return "leader"
	case FollowerRole:
		return "follower"
	default:
		return "candidate"
	}
}

// ErrNotLeader is the verdict WaitCommitted returns when the node is not
// (or no longer) the leader: the caller must NOT acknowledge the commit —
// it may yet be truncated by the next leader.
var ErrNotLeader = errors.New("replication: not leader")

// ErrStopped is returned once Stop has been called.
var ErrStopped = errors.New("replication: node stopped")

// Applier consumes committed records on a follower, materializing the
// replica's readable state. reldb.Follower satisfies it.
type Applier interface {
	// Apply consumes one record at its LSN; records arrive in strict LSN
	// order and only once the cluster commit watermark covers them.
	Apply(lsn uint64, payload []byte) error
	// Restore replaces all state from a leader checkpoint snapshot
	// (full resync).
	Restore(lsn uint64, snapshot []byte) error
}

// Config describes one cluster member.
type Config struct {
	// NodeID is this node's unique name; election ties break toward the
	// highest ID, so IDs order the cluster deterministically.
	NodeID string
	// Addr is the listen address ("host:port"); ignored when Listener is
	// set.
	Addr string
	// Listener, when set, is used instead of listening on Addr.
	Listener net.Listener
	// Peers maps every OTHER node's ID to its dial address.
	Peers map[string]string
	// Identity signs this node's secchan handshakes.
	Identity ed25519.PrivateKey
	// PeerKeys holds every peer's identity public key: a dialer refuses a
	// channel whose server cannot prove one of these.
	PeerKeys map[string]ed25519.PublicKey
	// Wallet is presented during the join handshake.
	Wallet *credential.Wallet
	// Verifier validates joining followers' wallets; JoinPolicy is the
	// credential expression a follower must satisfy. Both nil disables
	// the check (single-tenant test clusters).
	Verifier   *credential.Verifier
	JoinPolicy *credential.Expr
	// WAL is the node's local durable log. It must use SyncAlways so an
	// Append return doubles as the durability verdict the ack protocol
	// relies on.
	WAL *wal.WAL
	// MetaStore persists the node's election state (highest observed
	// epoch, the last epoch it granted a vote in, and the epoch of the
	// leadership its log tail last synced to) across restarts — see
	// durableMeta. It may share the WAL's wal.FS root: the state file's
	// name is ignored by WAL recovery. When nil the state is held in
	// memory only; that is acceptable for single-run tools and
	// benchmarks, but a production node must persist it — a node that
	// forgets a granted vote can vote twice in the same epoch after a
	// restart, re-opening the split-brain the vote protocol closes.
	MetaStore wal.FS
	// Applier materializes committed records on a follower; nil for a
	// pure log replica. AppliedLSN is the applier's initial position
	// (wal.LastLSN() after reldb.OpenFollower, which re-applies the whole
	// local log).
	Applier    Applier
	AppliedLSN uint64
	// OnLeader runs after this node wins an election and has applied its
	// local tail — the promote hook (e.g. reldb.Follower.Promote).
	OnLeader func()
	// OnDemote runs after the node abandons leadership (fencing, higher
	// epoch observed, Stop).
	OnDemote func()

	// ExportAuthKeys, when set on a node that can lead, renders the
	// auth-token mint verify-key set (keymgmt.MintKeyring.ExportPublic)
	// plus its generation. The leader ships it in every joinResp and in a
	// heartbeat whenever the generation moves, so leader-minted tokens
	// verify on any replica and a key rotation propagates without waiting
	// for log traffic.
	ExportAuthKeys func() (data []byte, gen uint64)
	// InstallAuthKeys, when set, installs a shipped verify-key set on a
	// follower (keymgmt.PublicKeySet.Install). Installs arrive in stream
	// order from the current leader; the node layer additionally orders
	// them by (leader epoch, generation) so a stale set never clobbers a
	// newer one across leadership changes.
	InstallAuthKeys func(data []byte) error

	// HeartbeatInterval paces leader heartbeats (default 50ms);
	// ElectionTimeout is how long silence means a dead leader and how
	// much quorum staleness a leader tolerates before fencing itself
	// (default 4× heartbeat).
	HeartbeatInterval time.Duration
	ElectionTimeout   time.Duration
	// DialTimeout bounds one connection attempt (default ElectionTimeout).
	DialTimeout time.Duration
	// SendQueue bounds each follower link's outbound queue; a follower
	// too slow to drain it is evicted (default 64).
	SendQueue int
	// BatchRecords caps how many records ship in one message (default 128).
	BatchRecords int

	// Dial overrides the transport dialer (tests inject partitions).
	Dial func(addr string, timeout time.Duration) (net.Conn, error)
	// Logf receives progress lines; nil discards them.
	Logf func(format string, args ...any)
}

func (c *Config) heartbeat() time.Duration {
	if c.HeartbeatInterval > 0 {
		return c.HeartbeatInterval
	}
	return 50 * time.Millisecond
}

func (c *Config) electionTimeout() time.Duration {
	if c.ElectionTimeout > 0 {
		return c.ElectionTimeout
	}
	return 4 * c.heartbeat()
}

func (c *Config) dialTimeout() time.Duration {
	if c.DialTimeout > 0 {
		return c.DialTimeout
	}
	return c.electionTimeout()
}

func (c *Config) sendQueue() int {
	if c.SendQueue > 0 {
		return c.SendQueue
	}
	return 64
}

func (c *Config) batchRecords() int {
	if c.BatchRecords > 0 {
		return c.BatchRecords
	}
	return 128
}

// Stats is a point-in-time snapshot for debugz.
type Stats struct {
	NodeID     string
	Role       string
	Epoch      uint64
	TailEpoch  uint64
	LeaderID   string
	CommitLSN  uint64
	DurableLSN uint64
	AppliedLSN uint64
	Elections  uint64
	Failovers  uint64
	Evictions  uint64
	Followers  map[string]FollowerStat
}

// FollowerStat describes one replica link from the leader's side.
type FollowerStat struct {
	AckedLSN  uint64
	QueueLen  int
	LastHeard time.Duration
}

// Node is one cluster member. Start launches its background loops; Stop
// tears them down.
type Node struct {
	cfg    Config
	quorum int

	mu       sync.Mutex
	role     Role        // seclint:guardedby mu
	epoch    uint64      // seclint:guardedby mu
	leaderID string      // seclint:guardedby mu
	commit   uint64      // seclint:guardedby mu
	applied  uint64      // seclint:guardedby mu
	applyCur *wal.Cursor // seclint:guardedby mu
	applying bool        // seclint:guardedby mu
	// applierGen counts SetApplier swaps: the apply loop releases mu
	// around Applier.Apply, and a swap in that window (demotion) makes
	// the old applier's position meaningless. Appliers themselves need
	// not be comparable, so the generation is the identity.
	applierGen uint64 // seclint:guardedby mu
	// votedEpoch and tailEpoch mirror durableMeta; saveMetaLocked must
	// succeed before either is acted on. epochStart is the leader's
	// durable LSN at promotion: the commit watermark may not advance
	// until a quorum has replicated through it.
	votedEpoch uint64 // seclint:guardedby mu
	tailEpoch  uint64 // seclint:guardedby mu
	epochStart uint64 // seclint:guardedby mu
	// links, acked and polledAt are non-empty only while leading.
	links map[string]*link  // seclint:guardedby mu
	acked map[string]uint64 // seclint:guardedby mu
	// polledAt is when each follower last reached this leadership before
	// its stream carries an ack: a poll answered as leader, or a join
	// request that passed the credential check (quorumHeardLocked).
	polledAt map[string]time.Time // seclint:guardedby mu
	// commitCh is closed and replaced whenever the commit watermark or
	// the role changes — the broadcast WaitCommitted and pumps wait on.
	commitCh chan struct{} // seclint:guardedby mu
	stopped  bool          // seclint:guardedby mu

	// leaderAt is the promotion instant: the fencing check treats it as
	// "heard from everyone now", so a fresh leader gets one election
	// timeout for its voters to come back as streaming followers before
	// quorum silence can demote it.
	leaderAt time.Time // seclint:guardedby mu
	// heardAt is when this node last heard from the leadership of its
	// epoch while not leading it: a message on its leader's stream, the
	// leader's state reply it joined on, or a vote it granted. Within the
	// election timeout of it the node stays with that leadership
	// (leaderFreshLocked).
	heardAt time.Time // seclint:guardedby mu

	// authKeysEpoch/authKeysGen order mint verify-key installs: a set is
	// installed only if its (leader epoch, keyring generation) is strictly
	// newer than the last one taken, so a stale leader's keys can never
	// clobber a newer leadership's.
	authKeysEpoch uint64 // seclint:guardedby mu
	authKeysGen   uint64 // seclint:guardedby mu

	elections uint64 // seclint:guardedby mu
	failovers uint64 // seclint:guardedby mu
	evictions uint64 // seclint:guardedby mu

	listener net.Listener
	breakers map[string]*resilience.Breaker
	wg       sync.WaitGroup
	stopCtx  context.Context
	stopFn   context.CancelFunc
}

// NewNode validates cfg and builds a node; Start brings it online.
func NewNode(cfg Config) (*Node, error) {
	if cfg.NodeID == "" {
		return nil, fmt.Errorf("replication: NodeID required")
	}
	if cfg.WAL == nil {
		return nil, fmt.Errorf("replication: WAL required")
	}
	if cfg.Identity == nil {
		return nil, fmt.Errorf("replication: Identity required")
	}
	n := &Node{
		cfg:      cfg,
		quorum:   (len(cfg.Peers)+1)/2 + 1,
		commitCh: make(chan struct{}),
		links:    make(map[string]*link),
		acked:    make(map[string]uint64),
		polledAt: make(map[string]time.Time),
		breakers: make(map[string]*resilience.Breaker),
		applied:  cfg.AppliedLSN,
	}
	if cfg.MetaStore != nil {
		m, err := loadMeta(cfg.MetaStore)
		if err != nil {
			return nil, err
		}
		// seclint:locked constructor: the node is not shared yet
		n.epoch, n.votedEpoch, n.tailEpoch = m.Epoch, m.VotedEpoch, m.TailEpoch
	}
	for id := range cfg.Peers {
		n.breakers[id] = resilience.NewBreaker(resilience.BreakerConfig{
			FailureThreshold: 3,
			Cooldown:         cfg.electionTimeout(),
			IsFailure:        func(err error) bool { return err != nil },
		})
	}
	return n, nil
}

// Start opens the listener and launches the accept and role loops.
func (n *Node) Start() error {
	l := n.cfg.Listener
	if l == nil {
		var err error
		l, err = net.Listen("tcp", n.cfg.Addr)
		if err != nil {
			return fmt.Errorf("replication: listen %s: %w", n.cfg.Addr, err)
		}
	}
	n.listener = l
	n.stopCtx, n.stopFn = context.WithCancel(context.Background())
	n.wg.Add(2)
	go n.acceptLoop()
	go n.roleLoop()
	return nil
}

// Addr returns the bound listen address.
func (n *Node) Addr() string {
	if n.listener == nil {
		return n.cfg.Addr
	}
	return n.listener.Addr().String()
}

// Stop tears the node down: demotes it, closes every link and waits for
// the background loops. Safe to call more than once, and on a node that
// was never started (or whose Start failed before listening).
func (n *Node) Stop() {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return
	}
	// seclint:locked the unlock above is in the returning branch; the lock is still held here
	n.stopped = true
	n.stepDownLocked("stop")
	n.mu.Unlock()
	if n.stopFn != nil {
		n.stopFn()
	}
	if n.listener != nil {
		n.listener.Close()
	}
	n.wg.Wait()
}

func (n *Node) logf(format string, args ...any) {
	if n.cfg.Logf != nil {
		n.cfg.Logf("[%s] "+format, append([]any{n.cfg.NodeID}, args...)...)
	}
}

// Role returns the node's current role.
func (n *Node) Role() Role {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role
}

// Epoch returns the highest epoch the node has observed.
func (n *Node) Epoch() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.epoch
}

// LeaderID returns the node the cluster currently follows ("" if unknown).
func (n *Node) LeaderID() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.leaderID
}

// CommitLSN returns the cluster commit watermark as this node knows it.
func (n *Node) CommitLSN() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.commit
}

// Snapshot returns current stats for debugz.
func (n *Node) Snapshot() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	s := Stats{
		NodeID:     n.cfg.NodeID,
		Role:       n.role.String(),
		Epoch:      n.epoch,
		TailEpoch:  n.tailEpoch,
		LeaderID:   n.leaderID,
		CommitLSN:  n.commit,
		DurableLSN: n.cfg.WAL.DurableLSN(),
		AppliedLSN: n.applied,
		Elections:  n.elections,
		Failovers:  n.failovers,
		Evictions:  n.evictions,
		Followers:  make(map[string]FollowerStat, len(n.links)),
	}
	now := time.Now()
	for id, l := range n.links {
		s.Followers[id] = FollowerStat{
			AckedLSN:  n.acked[id],
			QueueLen:  len(l.outbox),
			LastHeard: now.Sub(l.lastHeard()),
		}
	}
	return s
}

// WaitCommitted blocks until the cluster commit watermark reaches lsn —
// the replication half of a client's durability verdict. A nil return
// means a quorum of nodes holds the record durably; ErrNotLeader means
// leadership was lost first and the commit MUST NOT be acknowledged.
func (n *Node) WaitCommitted(ctx context.Context, lsn uint64) error {
	for {
		n.mu.Lock()
		if n.commit >= lsn {
			n.mu.Unlock()
			return nil
		}
		// seclint:locked unlocks above are in returning branches; the lock is held through here
		if n.stopped {
			n.mu.Unlock()
			return ErrStopped
		}
		// seclint:locked unlocks above are in returning branches; the lock is held through here
		if n.role != LeaderRole {
			n.mu.Unlock()
			return ErrNotLeader
		}
		// seclint:locked unlocks above are in returning branches; the lock is held through here
		ch := n.commitCh
		n.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// SetApplier replaces the node's applier and its position — the demote
// path: a promoted reldb.Follower is dead once it hands its database
// over, so an ex-leader rejoining as a follower installs a freshly opened
// one (reldb.OpenFollower re-reads the local WAL, hence appliedLSN is its
// LastLSN again).
func (n *Node) SetApplier(a Applier, appliedLSN uint64) {
	n.mu.Lock()
	n.cfg.Applier = a
	n.applierGen++
	n.applied = appliedLSN
	n.applyCur = nil
	n.mu.Unlock()
}

// broadcastLocked wakes everything waiting on commit/role changes.
//
// seclint:locked caller holds n.mu
func (n *Node) broadcastLocked() {
	close(n.commitCh)
	n.commitCh = make(chan struct{})
}

// advanceCommitLocked recomputes the quorum commit watermark from the
// leader's own durable position and the follower acks. The watermark
// never retreats, and it never advances to a position below epochStart:
// records older than the current leadership commit only once a quorum
// has replicated the leader's entire promotion-time log — Raft's rule
// that prior-term entries are committed indirectly, via current-term
// replication, never by counting replicas of the old entries alone. A
// follower acking a position at or past epochStart has durably stamped
// its tail with this epoch first (see advanceTailEpoch), which is what
// lets a later election order that log above any stale-epoch tail.
//
// seclint:locked caller holds n.mu
func (n *Node) advanceCommitLocked() {
	positions := make([]uint64, 0, len(n.acked)+1)
	positions = append(positions, n.cfg.WAL.DurableLSN())
	for _, lsn := range n.acked {
		positions = append(positions, lsn)
	}
	sort.Slice(positions, func(i, j int) bool { return positions[i] > positions[j] })
	if len(positions) < n.quorum {
		return
	}
	c := positions[n.quorum-1]
	if c < n.epochStart {
		// Quorum-durable, but possibly only on logs that have not yet
		// caught up to this leadership; committing here is the
		// phantom-commit hazard a failover could roll back.
		return
	}
	if c > n.commit {
		n.commit = c
		n.broadcastLocked()
	}
}

// setCommit adopts the leader's commit watermark on a follower and applies
// newly covered records.
func (n *Node) setCommit(c uint64) error {
	n.mu.Lock()
	if c > n.commit {
		n.commit = c
		n.broadcastLocked()
	}
	n.mu.Unlock()
	return n.applyCommitted()
}

// applyCommitted feeds the applier every durable record at or below the
// commit watermark, in LSN order, through a cursor on the node's own WAL.
func (n *Node) applyCommitted() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.applyCommittedLocked()
}

// seclint:locked caller holds n.mu
func (n *Node) applyCommittedLocked() error {
	if n.role == LeaderRole {
		// The leader's state machine is the promoted database itself — it
		// produced these records. Track the position, apply nothing.
		if n.cfg.Applier != nil && n.commit > n.applied {
			n.applied = n.commit
			n.applyCur = nil
		}
		return nil
	}
	return n.applyToLocked(n.commit)
}

// applyToLocked feeds the applier every durable record in (applied,
// upTo], in LSN order, through a cursor on the node's own WAL. n.mu is
// released around each Applier.Apply call — a slow or re-entrant applier
// must not block fencing, ack processing or WaitCommitted waiters — so
// the loop re-validates its position after every reacquire and yields to
// SetApplier swaps. Concurrent callers coalesce: if an apply loop is
// already in flight the call returns immediately and the running loop
// picks up any commit advance on its next iteration.
//
// seclint:locked caller holds n.mu (released/reacquired around applier calls below)
func (n *Node) applyToLocked(upTo uint64) error {
	if n.cfg.Applier == nil || n.applying {
		return nil
	}
	n.applying = true
	defer func() { n.applying = false }()
	for n.applied < upTo {
		if n.applyCur == nil {
			cur, err := n.cfg.WAL.OpenCursor(n.applied)
			if err != nil {
				return fmt.Errorf("replication: apply cursor: %w", err)
			}
			n.applyCur = cur
		}
		rec, ok, err := n.applyCur.Next()
		if err != nil {
			n.applyCur = nil
			return fmt.Errorf("replication: apply read: %w", err)
		}
		if !ok {
			return nil
		}
		if rec.LSN > upTo {
			// The cursor ran ahead of the target (it was reset by a
			// rewind); stop here, the position re-synchronizes below.
			n.applyCur = nil
			return nil
		}
		if rec.LSN != n.applied+1 {
			// A rewind replayed earlier records; skip what is already
			// applied.
			if rec.LSN <= n.applied {
				continue
			}
			n.applyCur = nil
			return fmt.Errorf("replication: apply gap: at %d, next record %d", n.applied, rec.LSN)
		}
		applier, gen := n.cfg.Applier, n.applierGen
		n.mu.Unlock()
		applyErr := applier.Apply(rec.LSN, rec.Payload)
		n.mu.Lock()
		if applyErr != nil {
			return fmt.Errorf("replication: apply lsn %d: %w", rec.LSN, applyErr)
		}
		if n.applierGen != gen {
			// SetApplier swapped the state machine while the lock was
			// released (demotion); its position is authoritative now.
			return nil
		}
		n.applied = rec.LSN
	}
	return nil
}

// dial opens a secchan client channel to peer, gated by its breaker.
func (n *Node) dial(peer string, cfg secchan.Config) (*secchan.Channel, error) {
	addr, ok := n.cfg.Peers[peer]
	if !ok {
		return nil, fmt.Errorf("replication: unknown peer %q", peer)
	}
	key, ok := n.cfg.PeerKeys[peer]
	if !ok {
		return nil, fmt.Errorf("replication: no identity key for peer %q", peer)
	}
	br := n.breakers[peer]
	if err := br.Allow(); err != nil {
		return nil, fmt.Errorf("replication: peer %s: %w", peer, err)
	}
	dialer := n.cfg.Dial
	if dialer == nil {
		dialer = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	conn, err := dialer(addr, n.cfg.dialTimeout())
	if err != nil {
		br.Record(err)
		return nil, fmt.Errorf("replication: dial %s: %w", peer, err)
	}
	ch, err := secchan.ClientConfig(conn, key, cfg)
	if err != nil {
		conn.Close()
		br.Record(err)
		return nil, fmt.Errorf("replication: handshake with %s: %w", peer, err)
	}
	br.Record(nil)
	return ch, nil
}

// jitteredBackoff spreads re-election attempts so a rebooted cluster does
// not stampede: uniform in [d/2, d). The same thundering-herd defense the
// resilience retry policy applies to its backoff.
func jitteredBackoff(d time.Duration) time.Duration {
	return d/2 + time.Duration(rand.Int63n(int64(d/2)))
}

// roleLoop is the node's main state machine: elect, then serve the chosen
// role until it fails, then elect again.
func (n *Node) roleLoop() {
	defer n.wg.Done()
	for {
		n.mu.Lock()
		stopped := n.stopped
		role := n.role
		leader := n.leaderID
		n.mu.Unlock()
		if stopped {
			return
		}
		switch role {
		case Candidate:
			n.runElection()
		case LeaderRole:
			n.runLeader()
		case FollowerRole:
			n.runFollower(leader)
		}
		select {
		case <-n.stopCtx.Done():
			return
		case <-time.After(jitteredBackoff(n.cfg.heartbeat())):
		}
	}
}

// stepDownLocked abandons leadership (or a follower link) and returns the
// node to Candidate. WaitCommitted waiters wake and observe ErrNotLeader.
//
// seclint:locked caller holds n.mu
func (n *Node) stepDownLocked(why string) {
	if n.role == LeaderRole {
		n.logf("stepping down: %s", why)
		if n.cfg.OnDemote != nil {
			// Run without the lock (the hook may call SetApplier), but
			// tracked by the WaitGroup: Stop must not return — and the
			// caller must not tear down the WAL or applier — while the
			// demote hook is still rebuilding them.
			n.wg.Add(1)
			go func() {
				defer n.wg.Done()
				n.cfg.OnDemote()
			}()
		}
	}
	n.role = Candidate
	n.leaderID = ""
	for id, l := range n.links {
		l.close()
		delete(n.links, id)
		delete(n.acked, id)
	}
	clear(n.polledAt)
	n.broadcastLocked()
}
