package replication_test

import (
	"context"
	"crypto/ed25519"
	"encoding/json"
	"errors"
	"net"
	"testing"
	"time"

	"webdbsec/internal/credential"
	"webdbsec/internal/replication"
	"webdbsec/internal/secchan"
)

// TestSingleNodeLeads: a cluster of one is its own quorum — it elects
// itself, promotes, and commits without any peers.
func TestSingleNodeLeads(t *testing.T) {
	c := newCluster(t, "n1")
	c.startAll("n1")
	leader := c.waitLeader(3 * time.Second)
	if leader.id != "n1" {
		t.Fatalf("leader = %s, want n1", leader.id)
	}
	if err := leader.commit("CREATE TABLE kv (k TEXT, v INT)"); err != nil {
		t.Fatalf("create: %v", err)
	}
	if err := leader.commit("INSERT INTO kv VALUES ('a', 1)"); err != nil {
		t.Fatalf("insert: %v", err)
	}
	got := leader.rows(t)
	if got["a"] != 1 {
		t.Fatalf("rows = %v", got)
	}
}

// TestThreeNodeReplication: commits on the leader become visible, through
// the follower replay path, on every replica.
func TestThreeNodeReplication(t *testing.T) {
	c := newCluster(t, "n1", "n2", "n3")
	c.startAll("n1", "n2", "n3")
	leader := c.waitLeader(3 * time.Second)

	if err := leader.commit("CREATE TABLE kv (k TEXT, v INT)"); err != nil {
		t.Fatalf("create: %v", err)
	}
	for i, k := range []string{"a", "b", "c"} {
		if err := leader.commit("INSERT INTO kv VALUES ('" + k + "', " + itoa(i+1) + ")"); err != nil {
			t.Fatalf("insert %s: %v", k, err)
		}
	}
	if err := leader.commit("UPDATE kv SET v = 10 WHERE k = 'a'"); err != nil {
		t.Fatalf("update: %v", err)
	}
	want := map[string]int64{"a": 10, "b": 2, "c": 3}
	c.waitConverged(want, 3*time.Second, "n1", "n2", "n3")
}

// TestLateJoinerCatchesUp: a node started after the cluster has committed
// history joins via the authenticated handshake and replays the backlog
// from its own (empty) WAL position.
func TestLateJoinerCatchesUp(t *testing.T) {
	c := newCluster(t, "n1", "n2", "n3")
	c.startAll("n1", "n2")
	leader := c.waitLeader(3 * time.Second)
	if err := leader.commit("CREATE TABLE kv (k TEXT, v INT)"); err != nil {
		t.Fatalf("create: %v", err)
	}
	if err := leader.commit("INSERT INTO kv VALUES ('early', 1)"); err != nil {
		t.Fatalf("insert: %v", err)
	}

	c.start("n3")
	c.waitConverged(map[string]int64{"early": 1}, 3*time.Second, "n3")

	if err := leader.commit("INSERT INTO kv VALUES ('late', 2)"); err != nil {
		t.Fatalf("insert: %v", err)
	}
	c.waitConverged(map[string]int64{"early": 1, "late": 2}, 3*time.Second, "n1", "n2", "n3")
}

// TestJoinRejectedWithoutCredential: the leader refuses to ship a single
// WAL byte to a node whose wallet fails the join policy. The imposter
// holds a credential from an untrusted authority; the two legitimate
// nodes still form a quorum and make progress without it.
func TestJoinRejectedWithoutCredential(t *testing.T) {
	c := newCluster(t, "n1", "n2", "n3")

	rogue, err := credential.NewAuthority("rogue-ca")
	if err != nil {
		t.Fatalf("authority: %v", err)
	}
	badWallet := credential.NewWallet("n1")
	if err := badWallet.Add(rogue.Issue("replica", "n1", map[string]string{"tier": "trusted"})); err != nil {
		t.Fatalf("wallet: %v", err)
	}
	c.walletOverride = map[string]*credential.Wallet{"n1": badWallet}

	c.startAll("n1", "n2", "n3")
	leader := c.waitLeader(3 * time.Second)
	if leader.id == "n1" {
		// With all logs equal, candidacy ties break to the highest node ID,
		// so the imposter (lowest ID, empty log) cannot win the vote here.
		t.Fatalf("untrusted node won the election")
	}
	if err := leader.commit("CREATE TABLE kv (k TEXT, v INT)"); err != nil {
		t.Fatalf("create: %v", err)
	}
	if err := leader.commit("INSERT INTO kv VALUES ('x', 7)"); err != nil {
		t.Fatalf("insert: %v", err)
	}
	want := map[string]int64{"x": 7}
	c.waitConverged(want, 3*time.Second, "n2", "n3")

	// n1's WAL must have received nothing: its join was rejected before
	// the stream started, and rejection repeats on every retry.
	time.Sleep(300 * time.Millisecond)
	n1 := c.members["n1"]
	n1.mu.Lock()
	lsn := n1.w.LastLSN()
	n1.mu.Unlock()
	if lsn != 0 {
		t.Fatalf("rejected node received %d WAL records, want 0", lsn)
	}
}

// TestFailoverOnLeaderStop: stopping the leader triggers re-election among
// the survivors, the new leader serves writes, and the old leader rejoins
// as a follower and converges.
func TestFailoverOnLeaderStop(t *testing.T) {
	c := newCluster(t, "n1", "n2", "n3")
	c.startAll("n1", "n2", "n3")
	leader := c.waitLeader(3 * time.Second)

	if err := leader.commit("CREATE TABLE kv (k TEXT, v INT)"); err != nil {
		t.Fatalf("create: %v", err)
	}
	if err := leader.commit("INSERT INTO kv VALUES ('pre', 1)"); err != nil {
		t.Fatalf("insert: %v", err)
	}
	c.waitConverged(map[string]int64{"pre": 1}, 3*time.Second, "n1", "n2", "n3")

	old := leader.id
	c.stop(old)

	leader2 := c.waitLeader(5 * time.Second)
	if leader2.id == old {
		t.Fatalf("stopped node %s re-elected as leader", old)
	}
	if err := leader2.commit("INSERT INTO kv VALUES ('post', 2)"); err != nil {
		t.Fatalf("insert after failover: %v", err)
	}

	c.start(old)
	c.waitConverged(map[string]int64{"pre": 1, "post": 2}, 5*time.Second, "n1", "n2", "n3")

	// The acknowledged pre-failover commit must have survived.
	if got := leader2.rows(t); got["pre"] != 1 {
		t.Fatalf("acknowledged commit lost across failover: %v", got)
	}
}

// TestPartitionedLeaderFences: a leader cut off from every peer loses its
// quorum and steps down instead of acknowledging writes; the majority side
// elects a replacement. After healing, the old leader rejoins and
// converges on the new history.
func TestPartitionedLeaderFences(t *testing.T) {
	c := newCluster(t, "n1", "n2", "n3")
	c.startAll("n1", "n2", "n3")
	leader := c.waitLeader(3 * time.Second)
	if err := leader.commit("CREATE TABLE kv (k TEXT, v INT)"); err != nil {
		t.Fatalf("create: %v", err)
	}
	if err := leader.commit("INSERT INTO kv VALUES ('pre', 1)"); err != nil {
		t.Fatalf("insert: %v", err)
	}
	c.waitConverged(map[string]int64{"pre": 1}, 3*time.Second, "n1", "n2", "n3")

	old := leader.id
	c.isolate(old)

	// The isolated leader must fence itself: no later write can be
	// acknowledged from the minority side. The writable database is handed
	// back by the OnDemote hook, which runs asynchronously (WaitGroup-
	// tracked) after the role flips — poll for both within the deadline.
	deadline := time.Now().Add(3 * time.Second)
	for {
		m := c.members[old]
		m.mu.Lock()
		db := m.db
		m.mu.Unlock()
		if m.node.Role() != replication.LeaderRole && db == nil {
			break
		}
		if time.Now().After(deadline) {
			if m.node.Role() == replication.LeaderRole {
				t.Fatalf("isolated leader %s never fenced itself", old)
			}
			t.Fatalf("fenced leader still holds a writable database")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Majority side elects a replacement and keeps committing.
	leader2 := c.waitLeader(5 * time.Second)
	if leader2.id == old {
		t.Fatalf("isolated node won the majority election")
	}
	if err := leader2.commit("INSERT INTO kv VALUES ('post', 2)"); err != nil {
		t.Fatalf("insert on majority side: %v", err)
	}

	c.heal()
	c.waitConverged(map[string]int64{"pre": 1, "post": 2}, 5*time.Second, "n1", "n2", "n3")
}

// TestWaitCommittedFailsWhenFenced: a write in flight when the leader
// loses quorum is not acknowledged — WaitCommitted reports ErrNotLeader
// instead of returning success for a record the cluster may discard.
func TestWaitCommittedFailsWhenFenced(t *testing.T) {
	c := newCluster(t, "n1", "n2", "n3")
	c.startAll("n1", "n2", "n3")
	leader := c.waitLeader(3 * time.Second)
	if err := leader.commit("CREATE TABLE kv (k TEXT, v INT)"); err != nil {
		t.Fatalf("create: %v", err)
	}

	c.isolate(leader.id)

	leader.mu.Lock()
	db, node, w := leader.db, leader.node, leader.w
	leader.mu.Unlock()
	if db == nil {
		t.Skip("leader already demoted before the write could start")
	}
	if _, err := db.Exec("INSERT INTO kv VALUES ('lost', 1)"); err != nil {
		// Demotion can poison the promoted handle mid-Exec; that is an
		// acceptable way to refuse the write.
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := node.WaitCommitted(ctx, w.LastLSN())
	if err == nil {
		t.Fatalf("WaitCommitted acknowledged a write on a fenced minority leader")
	}
	if !errors.Is(err, replication.ErrNotLeader) && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("WaitCommitted: %v, want ErrNotLeader", err)
	}
}

// TestFollowerCrashMidCatchUpRejoins: a follower whose disk dies while
// absorbing the backlog crashes, loses its unsynced tail, restarts from
// its own WAL position, and still converges.
func TestFollowerCrashMidCatchUpRejoins(t *testing.T) {
	c := newCluster(t, "n1", "n2", "n3")
	c.startAll("n1", "n2")
	leader := c.waitLeader(3 * time.Second)
	if err := leader.commit("CREATE TABLE kv (k TEXT, v INT)"); err != nil {
		t.Fatalf("create: %v", err)
	}
	for i := 0; i < 20; i++ {
		if err := leader.commit("INSERT INTO kv VALUES ('k" + itoa(i) + "', " + itoa(i) + ")"); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}

	// n3 joins with a write budget that dies partway through the backlog.
	n3 := c.members["n3"]
	n3.fs.LimitWriteBytes(2048)
	c.start("n3")

	// Wait for the injected fault to fire (the WAL poisons itself and the
	// node's consume loop errors out), then power-cycle the member.
	deadline := time.Now().Add(5 * time.Second)
	for !n3.fs.Crashed() {
		if time.Now().After(deadline) {
			t.Fatalf("write limit never tripped; catch-up finished under the budget")
		}
		time.Sleep(10 * time.Millisecond)
	}
	c.crash("n3")

	// Restart from what survived on disk; the join handshake anchors at
	// the follower's own durable position and resumes from there.
	c.start("n3")
	want := map[string]int64{}
	for i := 0; i < 20; i++ {
		want["k"+itoa(i)] = int64(i)
	}
	c.waitConverged(want, 5*time.Second, "n1", "n2", "n3")
}

// TestDivergentFollowerTruncates: a follower that wrote records the
// cluster never committed (it was leader of a fenced minority that kept a
// local tail) has that tail cut by the join handshake before resuming.
func TestDivergentFollowerTruncates(t *testing.T) {
	c := newCluster(t, "n1", "n2", "n3")
	c.startAll("n1", "n2", "n3")
	leader := c.waitLeader(3 * time.Second)
	if err := leader.commit("CREATE TABLE kv (k TEXT, v INT)"); err != nil {
		t.Fatalf("create: %v", err)
	}
	if err := leader.commit("INSERT INTO kv VALUES ('shared', 1)"); err != nil {
		t.Fatalf("insert: %v", err)
	}
	c.waitConverged(map[string]int64{"shared": 1}, 3*time.Second, "n1", "n2", "n3")

	// Stop a follower and forge an uncommitted divergent tail directly in
	// its WAL — the moral equivalent of a minority leader's orphan writes.
	var victim string
	for _, id := range c.sorted() {
		if id != leader.id {
			victim = id
			break
		}
	}
	c.stop(victim)
	m := c.members[victim]
	w := reopenWAL(t, m)
	// A well-formed reldb record (an empty commit) so the victim's own
	// recovery replays past it cleanly.
	if _, err := w.Append([]byte(`{"Op":3}`)); err != nil {
		t.Fatalf("forge orphan: %v", err)
	}
	forged := w.LastLSN()
	if err := w.Close(); err != nil {
		t.Fatalf("close forged wal: %v", err)
	}

	// Meanwhile the real cluster moves on.
	leader2 := c.waitLeader(5 * time.Second)
	if err := leader2.commit("INSERT INTO kv VALUES ('ahead', 2)"); err != nil {
		t.Fatalf("insert: %v", err)
	}

	c.start(victim)
	c.waitConverged(map[string]int64{"shared": 1, "ahead": 2}, 5*time.Second, "n1", "n2", "n3")

	// The forged record must be gone from the victim's log: the record at
	// that LSN now carries the leader's payload, not the orphan.
	m.mu.Lock()
	lastNow := m.w.LastLSN()
	m.mu.Unlock()
	if lastNow < forged {
		t.Fatalf("victim log at %d, expected to have re-advanced past forged %d", lastNow, forged)
	}
}

// TestStaleTailCandidateLosesElection: a node holding the LONGEST log —
// but a log whose tail is a stranded, never-committed leftover from an
// old epoch — must lose the election to a node with a shorter log whose
// tail was stamped by a newer leadership. Ordering candidates by durable
// LSN alone would elect the stale tail and destroy acknowledged commits;
// the vote round orders by (tail epoch, durable LSN), and voters refuse
// candidates behind themselves.
func TestStaleTailCandidateLosesElection(t *testing.T) {
	c := newCluster(t, "n1", "n2", "n3")
	c.startAll("n1", "n2", "n3")
	leader := c.waitLeader(3 * time.Second)
	if err := leader.commit("CREATE TABLE kv (k TEXT, v INT)"); err != nil {
		t.Fatalf("create: %v", err)
	}
	if err := leader.commit("INSERT INTO kv VALUES ('shared', 1)"); err != nil {
		t.Fatalf("insert: %v", err)
	}
	c.waitConverged(map[string]int64{"shared": 1}, 3*time.Second, "n1", "n2", "n3")

	// Take a follower offline and forge a long uncommitted tail into its
	// log — a minority leader that kept accepting local writes while
	// partitioned away. Its durable LSN ends up far ahead of everyone.
	var victim string
	for _, id := range c.sorted() {
		if id != leader.id {
			victim = id
			break
		}
	}
	c.stop(victim)
	vm := c.members[victim]
	vw := reopenWAL(t, vm)
	for i := 0; i < 30; i++ {
		if _, err := vw.Append([]byte(`{"Op":3}`)); err != nil {
			t.Fatalf("forge orphan %d: %v", i, err)
		}
	}
	staleLen := vw.LastLSN()
	if err := vw.Close(); err != nil {
		t.Fatalf("close forged wal: %v", err)
	}

	// Restart the old leader so the two live nodes elect a NEW epoch and
	// commit acknowledged rows under it — their (shorter) logs now carry a
	// newer tail-epoch stamp than the victim's forged monster.
	oldLeader := leader.id
	c.stop(oldLeader)
	c.start(oldLeader)
	leader2 := c.waitLeader(5 * time.Second)
	if err := leader2.commit("INSERT INTO kv VALUES ('post', 2)"); err != nil {
		t.Fatalf("insert at new epoch: %v", err)
	}
	var survivor string
	for _, id := range c.sorted() {
		if id != victim && id != leader2.id {
			survivor = id
		}
	}
	if c.members[survivor].w.LastLSN() >= staleLen {
		t.Fatalf("survivor log %d not shorter than forged log %d; test premise broken",
			c.members[survivor].w.LastLSN(), staleLen)
	}

	// Kill the new leader and bring the forged node back: the election is
	// now between a long stale-epoch tail and a short newer-epoch log.
	c.stop(leader2.id)
	c.start(victim)
	leader3 := c.waitLeader(5 * time.Second)
	if leader3.id == victim {
		t.Fatalf("stale-tail node %s won the election over a newer-epoch log", victim)
	}
	if leader3.id != survivor {
		t.Fatalf("leader is %s, want survivor %s", leader3.id, survivor)
	}

	// The acknowledged newer-epoch commit survived, the forged tail did
	// not, and the cluster converges once everyone is back.
	c.start(leader2.id)
	want := map[string]int64{"shared": 1, "post": 2}
	c.waitConverged(want, 5*time.Second, "n1", "n2", "n3")
	if got := leader3.rows(t); got["post"] != 2 {
		t.Fatalf("acknowledged commit lost to a stale tail: %v", got)
	}
}

// TestEvictsSlowFollower: a joiner that accepts the stream but never acks
// backs up the leader's bounded outbox and gets evicted instead of
// stalling replication for everyone else.
func TestEvictsSlowFollower(t *testing.T) {
	c := newCluster(t, "n1")
	c.sendQueue = 1
	c.startAll("n1")
	leader := c.waitLeader(3 * time.Second)
	if err := leader.commit("CREATE TABLE kv (k TEXT, v INT)"); err != nil {
		t.Fatalf("create: %v", err)
	}

	// Hand-rolled client: authenticate, join legitimately, then go silent.
	stall := newStalledFollower(t, c, "lazy", leader)
	defer stall.close()

	// Keep committing bulky rows; the stalled link stops draining once the
	// socket buffers fill, its bounded outbox backs up, and the eviction
	// policy cuts it loose. Batches of plain Execs between durability
	// waits keep the data rate well above what the dead link absorbs.
	leader.mu.Lock()
	db, node, w := leader.db, leader.node, leader.w
	leader.mu.Unlock()
	big := make([]byte, 32*1024)
	for i := range big {
		big[i] = 'x'
	}
	payload := string(big)
	deadline := time.Now().Add(10 * time.Second)
	for node.Snapshot().Evictions == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("slow follower never evicted: %+v", node.Snapshot())
		}
		for i := 0; i < 8; i++ {
			if _, err := db.Exec("INSERT INTO kv VALUES ('" + payload + "', 1)"); err != nil {
				t.Fatalf("insert: %v", err)
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		err := node.WaitCommitted(ctx, w.LastLSN())
		cancel()
		if err != nil {
			t.Fatalf("wait: %v", err)
		}
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	neg := i < 0
	if neg {
		i = -i
	}
	var b [24]byte
	p := len(b)
	for i > 0 {
		p--
		b[p] = byte('0' + i%10)
		i /= 10
	}
	if neg {
		p--
		b[p] = '-'
	}
	return string(b[p:])
}

// voteAs delivers to member to the vote request from stands for, over the
// same authenticated channel a peer dials, and returns the reply: whether
// the vote was granted and the voter's epoch.
func (c *cluster) voteAs(from, to string, epoch, durable uint64) (bool, uint64) {
	c.t.Helper()
	conn, err := net.DialTimeout("tcp", c.addrs[to], time.Second)
	if err != nil {
		c.t.Fatalf("dial %s: %v", to, err)
	}
	cfg := secchan.Config{HandshakeTimeout: time.Second, ReadTimeout: time.Second, WriteTimeout: time.Second}
	ch, err := secchan.ClientConfig(conn, nodeKey(to).Public().(ed25519.PublicKey), cfg)
	if err != nil {
		conn.Close()
		c.t.Fatalf("handshake with %s: %v", to, err)
	}
	defer ch.Close()
	req, _ := json.Marshal(map[string]any{"t": "vote", "node": from, "epoch": epoch, "durable": durable})
	if err := ch.Send(req); err != nil {
		c.t.Fatalf("send vote to %s: %v", to, err)
	}
	raw, err := ch.Receive()
	if err != nil {
		c.t.Fatalf("vote reply from %s: %v", to, err)
	}
	var resp struct {
		Epoch uint64 `json:"epoch"`
		OK    bool   `json:"ok"`
	}
	if err := json.Unmarshal(raw, &resp); err != nil {
		c.t.Fatalf("vote reply from %s: %v", to, err)
	}
	return resp.OK, resp.Epoch
}

// TestStaleCandidateCannotUnseatLeader: n3 is held back while n1 and n2
// elect. Once the leader won its epoch and the other follows it, n3's
// candidacy for the next epoch — what n3 sends when its poll ran before
// the win showed, and its log ranks best — is refused by both, neither
// adopts the epoch, the leader keeps leading, and n3 joins it in the same
// epoch. Without the stickiness rule the follower grants the vote and the
// leader steps down for it: the cluster-start churn that answered a
// test's first commit "not leader".
func TestStaleCandidateCannotUnseatLeader(t *testing.T) {
	c := newCluster(t, "n1", "n2", "n3")
	c.isolate("n3")
	c.startAll("n1", "n2", "n3")
	leader := c.waitLeader(3 * time.Second)
	other := map[string]string{"n1": "n2", "n2": "n1"}[leader.id]
	epoch := leader.node.Epoch()
	waitUntil := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(3 * time.Second); !cond(); time.Sleep(10 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting until %s", what)
			}
		}
	}
	follows := func(id string) bool {
		n := c.members[id].node
		return n.Role() == replication.FollowerRole && n.LeaderID() == leader.id && n.Epoch() == epoch
	}
	waitUntil(other+" follows "+leader.id, func() bool { return follows(other) })

	for _, id := range []string{other, leader.id} {
		if granted, got := c.voteAs("n3", id, epoch+1, 1<<20); granted || got != epoch {
			t.Errorf("%s answered n3's candidacy for epoch %d: granted %v at epoch %d, want a refusal at %d", id, epoch+1, granted, got, epoch)
		}
	}
	if n := leader.node; n.Role() != replication.LeaderRole || n.Epoch() != epoch {
		t.Fatalf("after the stale candidacy %s is %s at epoch %d, want leader at %d", leader.id, n.Role(), n.Epoch(), epoch)
	}

	c.heal()
	waitUntil("n3 follows "+leader.id, func() bool { return follows("n3") })
	if err := leader.commit("CREATE TABLE kv (k TEXT, v INT)"); err != nil {
		t.Fatalf("first commit on %s: %v", leader.id, err)
	}
	for _, id := range c.sorted() {
		if e := c.members[id].node.Epoch(); e != epoch {
			t.Errorf("%s ends at epoch %d, want %d", id, e, epoch)
		}
	}
}
