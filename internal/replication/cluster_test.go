package replication_test

import (
	"context"
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"webdbsec/internal/credential"
	"webdbsec/internal/keymgmt"
	"webdbsec/internal/reldb"
	"webdbsec/internal/replication"
	"webdbsec/internal/resilience/faultinject"
	"webdbsec/internal/secchan"
	"webdbsec/internal/wal"
)

// Test harness: an in-process cluster over loopback TCP with an
// injectable, partitionable dialer, MemFS-backed WALs (so leaders can be
// crashed at byte offsets), reldb followers as appliers, and promote/
// demote hooks mirroring what cmd/securedb wires up.

const testSecret = "cluster-test-secret"

// nodeKey derives a node's ed25519 identity deterministically from the
// shared test secret, so every member can compute every peer's public key.
func nodeKey(id string) ed25519.PrivateKey {
	seed := sha256.Sum256([]byte(testSecret + "|" + id))
	return ed25519.NewKeyFromSeed(seed[:])
}

type member struct {
	id string
	fs *faultinject.MemFS

	// ring/keyset are the auth-token mint keys (cluster.mintKeys mode):
	// the ring signs when this member leads, the keyset receives whatever
	// set the current leader ships. Both survive restarts of the member.
	ring   *keymgmt.MintKeyring
	keyset *keymgmt.PublicKeySet

	mu       sync.Mutex
	w        *wal.WAL
	node     *replication.Node
	follower *reldb.Follower
	db       *reldb.Database // non-nil while leader
	running  bool
}

type cluster struct {
	t       *testing.T
	auth    *credential.Authority
	members map[string]*member
	addrs   map[string]string // id -> listen addr
	addrID  map[string]string // listen addr -> id

	// walletOverride substitutes a member's join wallet (e.g. an invalid
	// one) before start(); sendQueue overrides Config.SendQueue when > 0.
	walletOverride map[string]*credential.Wallet
	sendQueue      int
	// applierFor, when set, replaces the default reldb follower state
	// machine — used by tests replicating other appliers (the audit WAL,
	// the xmldoc store). Promote/demote hooks are skipped in this mode, so
	// leadership is role-only and member.db stays nil.
	applierFor func(m *member) (replication.Applier, uint64)
	// mintKeys gives every member an auth-token mint keyring and a
	// replicated PublicKeySet, wired through ExportAuthKeys/InstallAuthKeys.
	mintKeys bool

	mu      sync.Mutex
	blocked map[string]map[string]bool
	conns   []pairConn
}

type pairConn struct {
	a, b string
	conn net.Conn
}

// newCluster builds (but does not start) n members with pre-bound
// listeners so every config knows every peer address up front.
func newCluster(t *testing.T, ids ...string) *cluster {
	t.Helper()
	auth, err := credential.NewAuthority("cluster-ca")
	if err != nil {
		t.Fatalf("authority: %v", err)
	}
	c := &cluster{
		t:       t,
		auth:    auth,
		members: make(map[string]*member),
		addrs:   make(map[string]string),
		addrID:  make(map[string]string),
		blocked: make(map[string]map[string]bool),
	}
	for _, id := range ids {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		addr := l.Addr().String()
		l.Close() // re-bound by start(); we only need a stable port
		c.addrs[id] = addr
		c.addrID[addr] = id
		c.members[id] = &member{id: id, fs: faultinject.NewMemFS()}
	}
	t.Cleanup(c.stopAll)
	return c
}

func (c *cluster) stopAll() {
	for _, id := range c.sorted() {
		c.stop(id)
	}
}

func (c *cluster) sorted() []string {
	out := make([]string, 0, len(c.members))
	for id := range c.members {
		out = append(out, id)
	}
	for i := range out {
		for j := i + 1; j < len(out); j++ {
			if out[j] < out[i] {
				out[i], out[j] = out[j], out[i]
			}
		}
	}
	return out
}

// dialer returns the partition-aware transport dialer for one member.
func (c *cluster) dialer(from string) func(addr string, timeout time.Duration) (net.Conn, error) {
	return func(addr string, timeout time.Duration) (net.Conn, error) {
		to := c.addrID[addr]
		c.mu.Lock()
		cut := c.blocked[from][to] || c.blocked[to][from]
		c.mu.Unlock()
		if cut {
			return nil, fmt.Errorf("partition: %s cannot reach %s", from, to)
		}
		conn, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			return nil, err
		}
		// A partition that landed during the dial has already closed every
		// registered connection of the pair; this one must not outlive it.
		c.mu.Lock()
		if c.blocked[from][to] || c.blocked[to][from] {
			c.mu.Unlock()
			conn.Close()
			return nil, fmt.Errorf("partition: %s cannot reach %s", from, to)
		}
		c.conns = append(c.conns, pairConn{a: from, b: to, conn: conn})
		c.mu.Unlock()
		return conn, nil
	}
}

// partition cuts a↔b: future dials fail and existing connections die.
func (c *cluster) partition(a, b string) {
	c.mu.Lock()
	if c.blocked[a] == nil {
		c.blocked[a] = make(map[string]bool)
	}
	c.blocked[a][b] = true
	var kill []net.Conn
	keep := c.conns[:0]
	for _, pc := range c.conns {
		if (pc.a == a && pc.b == b) || (pc.a == b && pc.b == a) {
			kill = append(kill, pc.conn)
			continue
		}
		keep = append(keep, pc)
	}
	c.conns = keep
	c.mu.Unlock()
	for _, conn := range kill {
		conn.Close()
	}
}

// isolate partitions id away from every other member.
func (c *cluster) isolate(id string) {
	for _, other := range c.sorted() {
		if other != id {
			c.partition(id, other)
		}
	}
}

// heal removes every partition.
func (c *cluster) heal() {
	c.mu.Lock()
	c.blocked = make(map[string]map[string]bool)
	c.mu.Unlock()
}

// wallet issues a replica credential the join policy accepts.
func (c *cluster) wallet(id string) *credential.Wallet {
	w := credential.NewWallet(id)
	if err := w.Add(c.auth.Issue("replica", id, map[string]string{"tier": "trusted"})); err != nil {
		c.t.Fatalf("wallet: %v", err)
	}
	return w
}

func (c *cluster) joinVerifier() *credential.Verifier {
	v := credential.NewVerifier()
	v.TrustAuthority(c.auth)
	return v
}

var joinPolicy = credential.MustCompile(`replica.tier = 'trusted'`)

// start (re)opens a member from its MemFS — the restart-after-crash path —
// and brings its node online.
func (c *cluster) start(id string) *member {
	c.t.Helper()
	m := c.members[id]
	w, err := wal.Open(wal.Options{FS: m.fs, Policy: wal.SyncAlways})
	if err != nil {
		c.t.Fatalf("start %s: wal: %v", id, err)
	}
	m.mu.Lock()
	m.w = w
	m.mu.Unlock()
	var f *reldb.Follower
	var applier replication.Applier
	var appliedLSN uint64
	if c.applierFor != nil {
		applier, appliedLSN = c.applierFor(m)
	} else {
		f, err = reldb.OpenFollower(w)
		if err != nil {
			c.t.Fatalf("start %s: follower: %v", id, err)
		}
		applier, appliedLSN = f, f.AppliedLSN()
	}
	l, err := net.Listen("tcp", c.addrs[id])
	if err != nil {
		c.t.Fatalf("start %s: listen: %v", id, err)
	}
	peers := make(map[string]string)
	keys := make(map[string]ed25519.PublicKey)
	for pid, addr := range c.addrs {
		if pid == id {
			continue
		}
		peers[pid] = addr
		keys[pid] = nodeKey(pid).Public().(ed25519.PublicKey)
	}
	wallet := c.wallet(id)
	if ow, ok := c.walletOverride[id]; ok {
		wallet = ow
	}
	cfg := replication.Config{
		NodeID:            id,
		Listener:          l,
		Peers:             peers,
		Identity:          nodeKey(id),
		PeerKeys:          keys,
		Wallet:            wallet,
		Verifier:          c.joinVerifier(),
		JoinPolicy:        joinPolicy,
		SendQueue:         c.sendQueue,
		WAL:               w,
		MetaStore:         m.fs,
		Applier:           applier,
		AppliedLSN:        appliedLSN,
		HeartbeatInterval: 20 * time.Millisecond,
		ElectionTimeout:   150 * time.Millisecond,
		Dial:              c.dialer(id),
		Logf:              c.t.Logf,
	}
	if c.mintKeys {
		if m.ring == nil {
			r, err := keymgmt.NewMintKeyring(2)
			if err != nil {
				c.t.Fatalf("start %s: keyring: %v", id, err)
			}
			m.ring = r
		}
		if m.keyset == nil {
			m.keyset = keymgmt.NewPublicKeySet()
		}
		cfg.ExportAuthKeys = m.ring.ExportPublic
		cfg.InstallAuthKeys = m.keyset.Install
	}
	if c.applierFor == nil {
		cfg.OnLeader = func() {
			m.mu.Lock()
			defer m.mu.Unlock()
			db, err := m.follower.Promote()
			if err != nil {
				c.t.Errorf("%s: promote: %v", id, err)
				return
			}
			m.db = db
		}
		cfg.OnDemote = func() {
			m.mu.Lock()
			defer m.mu.Unlock()
			m.db = nil
			nf, err := reldb.OpenFollower(m.w)
			if err != nil {
				if m.fs.Crashed() {
					// A node whose disk died can't rebuild a follower; the
					// test restarts it from its surviving WAL instead.
					c.t.Logf("%s: reopen follower after injected crash: %v", id, err)
				} else {
					c.t.Errorf("%s: reopen follower: %v", id, err)
				}
				return
			}
			m.follower = nf
			m.node.SetApplier(nf, nf.AppliedLSN())
		}
	}
	node, err := replication.NewNode(cfg)
	if err != nil {
		c.t.Fatalf("start %s: node: %v", id, err)
	}
	m.mu.Lock()
	m.w, m.follower, m.node, m.db, m.running = w, f, node, nil, true
	m.mu.Unlock()
	if err := node.Start(); err != nil {
		c.t.Fatalf("start %s: %v", id, err)
	}
	return m
}

func (c *cluster) startAll(ids ...string) {
	for _, id := range ids {
		c.start(id)
	}
}

// stop shuts a member down cleanly (node halt + WAL close).
func (c *cluster) stop(id string) {
	m := c.members[id]
	m.mu.Lock()
	running := m.running
	node, w := m.node, m.w
	m.running = false
	m.mu.Unlock()
	if !running {
		return
	}
	node.Stop()
	_ = w.Close()
}

// crash kills a member without any graceful teardown and drops everything
// its MemFS had not fsynced — the power-cut model.
func (c *cluster) crash(id string) {
	m := c.members[id]
	m.mu.Lock()
	running := m.running
	node := m.node
	m.running = false
	m.mu.Unlock()
	if running {
		node.Stop()
	}
	m.fs.Crash()
	m.fs = m.fs.AfterCrash(true)
}

// waitLeader polls until exactly one running member is leader with a
// promoted database, and returns it.
func (c *cluster) waitLeader(within time.Duration) *member {
	c.t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		var leader *member
		count := 0
		for _, m := range c.members {
			m.mu.Lock()
			running, node, db := m.running, m.node, m.db
			m.mu.Unlock()
			if !running || node == nil {
				continue
			}
			if node.Role() == replication.LeaderRole && (db != nil || c.applierFor != nil) {
				leader = m
				count++
			}
		}
		if count == 1 {
			return leader
		}
		time.Sleep(10 * time.Millisecond)
	}
	c.t.Fatalf("no unique leader within %v", within)
	return nil
}

// commit executes sql on the leader and waits for the cluster durability
// verdict. A nil return is the client ack.
func (m *member) commit(sql string) error {
	m.mu.Lock()
	db, node, w := m.db, m.node, m.w
	m.mu.Unlock()
	if db == nil {
		return fmt.Errorf("%s: not leader", m.id)
	}
	if _, err := db.Exec(sql); err != nil {
		return err
	}
	if err := db.Log().Err(); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	return node.WaitCommitted(ctx, w.LastLSN())
}

// rows reads table kv as a map through the member's current database
// (promoted leader db or follower materialization).
func (m *member) rows(t *testing.T) map[string]int64 {
	t.Helper()
	m.mu.Lock()
	db := m.db
	if db == nil {
		db = m.follower.DB()
	}
	m.mu.Unlock()
	if _, ok := db.Table("kv"); !ok {
		return nil
	}
	res, err := db.Exec("SELECT k, v FROM kv")
	if err != nil {
		t.Fatalf("%s: SELECT: %v", m.id, err)
	}
	out := make(map[string]int64, len(res.Rows))
	for _, r := range res.Rows {
		out[r[0].S] = r[1].I
	}
	return out
}

// reopenWAL opens a stopped member's WAL directly (for forging or
// inspecting its log between runs) and records it on the member.
func reopenWAL(t *testing.T, m *member) *wal.WAL {
	t.Helper()
	w, err := wal.Open(wal.Options{FS: m.fs, Policy: wal.SyncAlways})
	if err != nil {
		t.Fatalf("%s: reopen wal: %v", m.id, err)
	}
	return w
}

// stalledFollower is a hand-rolled replica client that completes the
// authenticated join handshake legitimately and then goes silent — the
// worst-behaved follower the eviction policy must handle.
type stalledFollower struct {
	conn net.Conn
	ch   *secchan.Channel
	done chan struct{}
}

func newStalledFollower(t *testing.T, c *cluster, id string, leader *member) *stalledFollower {
	t.Helper()
	conn, err := net.Dial("tcp", c.addrs[leader.id])
	if err != nil {
		t.Fatalf("stall dial: %v", err)
	}
	// A tiny receive buffer makes the kernel stop absorbing the stream
	// almost immediately once this client stops reading — otherwise
	// loopback socket buffers can soak up megabytes and the leader never
	// observes the follower as slow within the test's window.
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetReadBuffer(4096)
	}
	serverKey := nodeKey(leader.id).Public().(ed25519.PublicKey)
	ch, err := secchan.ClientConfig(conn, serverKey, secchan.Config{
		HandshakeTimeout: 2 * time.Second,
		WriteTimeout:     2 * time.Second,
		ReadTimeout:      10 * time.Second,
	})
	if err != nil {
		t.Fatalf("stall handshake: %v", err)
	}
	s := &stalledFollower{conn: conn, ch: ch}
	walletRaw, err := json.Marshal(c.wallet(id))
	if err != nil {
		t.Fatalf("stall wallet: %v", err)
	}
	join, err := json.Marshal(map[string]interface{}{
		"t":      "join",
		"node":   id,
		"epoch":  leader.node.Epoch(),
		"wallet": json.RawMessage(walletRaw),
	})
	if err != nil {
		t.Fatalf("stall join: %v", err)
	}
	if err := ch.Send(join); err != nil {
		t.Fatalf("stall send join: %v", err)
	}
	raw, err := ch.Receive()
	if err != nil {
		t.Fatalf("stall joinResp: %v", err)
	}
	var resp struct {
		T      string `json:"t"`
		Plan   string `json:"plan"`
		Reason string `json:"reason"`
	}
	if err := json.Unmarshal(raw, &resp); err != nil || resp.T != "joinResp" {
		t.Fatalf("stall joinResp: %q err=%v", raw, err)
	}
	if resp.Plan == "reject" {
		t.Fatalf("stall join rejected: %s", resp.Reason)
	}
	ack, _ := json.Marshal(map[string]interface{}{"t": "joinAck", "node": id, "ok": true})
	if err := ch.Send(ack); err != nil {
		t.Fatalf("stall joinAck: %v", err)
	}
	// From here on: never read the stream, but keep sending stale acks so
	// the leader's liveness check stays happy — the bounded outbox is then
	// the only thing that can cut this link loose.
	s.done = make(chan struct{})
	go func() {
		keepalive, _ := json.Marshal(map[string]interface{}{"t": "ack", "node": id})
		tick := time.NewTicker(30 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.done:
				return
			case <-tick.C:
				if err := s.ch.Send(keepalive); err != nil {
					return
				}
			}
		}
	}()
	return s
}

func (s *stalledFollower) close() {
	close(s.done)
	s.ch.Close()
	s.conn.Close()
}

// waitConverged polls until every listed member's kv table equals want.
func (c *cluster) waitConverged(want map[string]int64, within time.Duration, ids ...string) {
	c.t.Helper()
	deadline := time.Now().Add(within)
	for {
		allEqual := true
		for _, id := range ids {
			got := c.members[id].rows(c.t)
			if len(got) != len(want) {
				allEqual = false
				break
			}
			for k, v := range want {
				if got[k] != v {
					allEqual = false
					break
				}
			}
		}
		if allEqual {
			return
		}
		if time.Now().After(deadline) {
			for _, id := range ids {
				c.t.Logf("%s: rows=%v stats=%+v", id, c.members[id].rows(c.t), c.members[id].node.Snapshot())
			}
			c.t.Fatalf("members %v did not converge to %v within %v", ids, want, within)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
