package replication_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"webdbsec/internal/audit"
	"webdbsec/internal/policy"
	"webdbsec/internal/reldb"
	"webdbsec/internal/replication"
	"webdbsec/internal/sysr"
)

// Fault-injection failover matrix: the acceptance bar for replication is
// that a 3-node cluster survives kill-the-leader with ZERO acknowledged-
// commit loss. The leader's MemFS write kill switch is armed at sampled
// byte offsets, so the disk dies mid-batch at varied frame positions —
// inside a record, between a DML record and its commit record, between
// group-commit batches — and the surviving majority must elect a leader
// that still holds every row whose commit() returned nil.

// TestKillLeaderMatrixNoAckedLoss arms the leader's write kill switch at a
// sampled byte offset, commits until the disk dies under the leader, then
// crashes it (dropping unsynced writes — the power-cut model) and asserts
// the new leader holds every acknowledged row. The old leader then rejoins
// and must converge, truncating any unacknowledged divergent tail.
func TestKillLeaderMatrixNoAckedLoss(t *testing.T) {
	// Offsets are relative to the leader's WAL size at arming time; small
	// ones land inside the first record's frame, larger ones between
	// batches several commits later. -short (the make check gate) keeps
	// one early and one late kill; the full matrix runs in crashmatrix.
	offsets := []int64{3, 97, 512, 2048, 8192}
	if testing.Short() {
		offsets = []int64{97, 2048}
	}
	for _, off := range offsets {
		off := off
		t.Run(fmt.Sprintf("offset=%d", off), func(t *testing.T) {
			c := newCluster(t, "n1", "n2", "n3")
			c.startAll("n1", "n2", "n3")
			leader := c.waitLeader(5 * time.Second)

			if err := leader.commit("CREATE TABLE kv (k TEXT, v INT)"); err != nil {
				t.Fatalf("create: %v", err)
			}
			acked := map[string]int64{}

			leader.fs.LimitWriteBytes(off)
			for i := 0; i < 500 && !leader.fs.Crashed(); i++ {
				key := "k" + itoa(i)
				err := leader.commit("INSERT INTO kv VALUES ('" + key + "', " + itoa(i) + ")")
				if err != nil {
					t.Logf("commit %s failed (expected near crash point): %v", key, err)
					break
				}
				acked[key] = int64(i)
			}
			if !leader.fs.Crashed() {
				t.Fatalf("leader disk never hit the kill switch at offset %d", off)
			}
			deadID := leader.id
			c.crash(deadID)

			successor := c.waitLeader(5 * time.Second)
			if successor.id == deadID {
				t.Fatalf("dead leader %s re-elected", deadID)
			}
			got := successor.rows(t)
			for k, v := range acked {
				if got[k] != v {
					t.Fatalf("offset %d: acked row %s=%d lost after failover (new leader %s has %v)",
						off, k, v, successor.id, got)
				}
			}

			// The old leader rejoins from its surviving WAL; any record it
			// accepted but never acknowledged is truncated or overwritten by
			// catch-up, and all three converge on the successor's state.
			c.start(deadID)
			c.waitConverged(successor.rows(t), 10*time.Second, "n1", "n2", "n3")
		})
	}
}

// secureFixture applies the same grant/row-policy/column-policy
// configuration to a SecureDB wrapper — the gate is node-local
// configuration, applied identically on leader and replica, while the
// table data underneath arrives via WAL shipping.
func secureFixture(t *testing.T, sdb *reldb.SecureDB) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(sdb.Grants().Grant("dba", "mgr", sysr.Select, "emp", false))
	must(sdb.Grants().Grant("dba", "eng-staff", sysr.Select, "emp", false))
	mgrPred := reldb.MustParse("SELECT * FROM emp WHERE salary >= 0").(*reldb.SelectStmt).Where
	engPred := reldb.MustParse("SELECT * FROM emp WHERE dept = 'eng'").(*reldb.SelectStmt).Where
	must(sdb.AddRowPolicy(&reldb.RowPolicy{
		Name: "mgr-all", Table: "emp",
		Subject: policy.SubjectSpec{Roles: []string{"manager"}}, Pred: mgrPred,
	}))
	must(sdb.AddRowPolicy(&reldb.RowPolicy{
		Name: "eng-own-dept", Table: "emp",
		Subject: policy.SubjectSpec{Roles: []string{"eng"}}, Pred: engPred,
	}))
	must(sdb.AddColPolicy(&reldb.ColPolicy{
		Name: "hide-salary", Table: "emp",
		Subject: policy.SubjectSpec{Roles: []string{"eng"}}, Columns: []string{"salary"},
	}))
}

func renderRows(res *reldb.Result) string {
	var b strings.Builder
	for _, row := range res.Rows {
		for i, v := range row {
			if i > 0 {
				b.WriteByte('|')
			}
			fmt.Fprintf(&b, "%v", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestReplicaReadsThroughSecureGate asserts the ISSUE's read-path
// requirement: follower reads go through the same access-control gate as
// leader reads. Rows ship via the WAL; the SecureDB policy wrapper is
// applied identically on both sides, and every subject — privileged,
// row-restricted, column-masked, and unauthorized — must observe exactly
// the same result on the replica as on the leader.
func TestReplicaReadsThroughSecureGate(t *testing.T) {
	c := newCluster(t, "n1", "n2")
	c.startAll("n1", "n2")
	leader := c.waitLeader(5 * time.Second)

	leader.mu.Lock()
	ldb := leader.db
	leader.mu.Unlock()
	sdb := reldb.NewSecureDB(ldb, nil)
	dba := &policy.Subject{ID: "dba"}
	if err := sdb.CreateTable(dba, "CREATE TABLE emp (id INT, name TEXT, dept TEXT, salary INT)"); err != nil {
		t.Fatal(err)
	}
	for _, r := range []string{
		"(1, 'Ada', 'eng', 120)", "(2, 'Bob', 'eng', 90)", "(3, 'Cyd', 'hr', 80)",
	} {
		if _, err := sdb.Exec(dba, "INSERT INTO emp VALUES "+r); err != nil {
			t.Fatal(err)
		}
	}
	secureFixture(t, sdb)

	// Wait for the cluster ack and for the replica to apply everything.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := leader.node.WaitCommitted(ctx, leader.w.LastLSN()); err != nil {
		t.Fatalf("wait committed: %v", err)
	}
	var replica *member
	for _, id := range []string{"n1", "n2"} {
		if id != leader.id {
			replica = c.members[id]
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for replica.follower.AppliedLSN() < leader.w.LastLSN() {
		if time.Now().After(deadline) {
			t.Fatalf("replica stuck at %d, leader at %d", replica.follower.AppliedLSN(), leader.w.LastLSN())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The replica wrapper carries the same gate configuration the leader's
	// does: ownership (recorded by CreateTable on the leader) plus the
	// grants and policies from the shared fixture. The table itself arrived
	// via the WAL.
	fsdb := reldb.NewSecureDB(replica.follower.DB(), nil)
	if err := fsdb.Grants().CreateObject("emp", "dba"); err != nil {
		t.Fatalf("replica catalog: %v", err)
	}
	secureFixture(t, fsdb)

	mgr := &policy.Subject{ID: "mgr", Roles: []string{"manager"}}
	eng := &policy.Subject{ID: "eng-staff", Roles: []string{"eng"}}
	const q = "SELECT id, name, dept, salary FROM emp"
	for _, sub := range []*policy.Subject{mgr, eng} {
		lres, err := sdb.Exec(sub, q)
		if err != nil {
			t.Fatalf("leader read %s: %v", sub.ID, err)
		}
		fres, err := fsdb.Exec(sub, q)
		if err != nil {
			t.Fatalf("replica read %s: %v", sub.ID, err)
		}
		if renderRows(lres) != renderRows(fres) {
			t.Errorf("%s: replica read differs from leader:\nleader:\n%sreplica:\n%s",
				sub.ID, renderRows(lres), renderRows(fres))
		}
	}
	// An eng-staff read must actually be masked/filtered — the gate is live,
	// not a pass-through — and identical on both sides (checked above).
	engRes, err := fsdb.Exec(eng, q)
	if err != nil {
		t.Fatalf("replica eng read: %v", err)
	}
	if len(engRes.Rows) != 2 {
		t.Errorf("eng sees %d rows on replica, want 2 (own dept only)", len(engRes.Rows))
	}
	// Unauthorized subjects are rejected on the replica exactly as on the
	// leader: replication must not open a policy bypass.
	nobody := &policy.Subject{ID: "nobody"}
	if _, err := sdb.Exec(nobody, q); err == nil {
		t.Error("leader allowed unprivileged read")
	}
	if _, err := fsdb.Exec(nobody, q); err == nil {
		t.Error("replica allowed unprivileged read")
	}
}

// nopApplier materializes nothing: the replicated WAL is the whole state.
type nopApplier struct{}

func (nopApplier) Apply(uint64, []byte) error   { return nil }
func (nopApplier) Restore(uint64, []byte) error { return nil }

// TestAuditChainReplicatedAndReverified ships a hash-chained audit log
// over replication and re-verifies the chain on the replica: catch-up must
// deliver a log that passes audit.OpenLog's full chain walk, and a forged
// record smuggled into the replica's WAL must break verification — the
// tamper-evidence property survives transport.
func TestAuditChainReplicatedAndReverified(t *testing.T) {
	c := newCluster(t, "a1", "a2")
	c.applierFor = func(m *member) (replication.Applier, uint64) {
		// Audit records need no materialization on the replica: the WAL
		// itself is the replicated state, re-verified by OpenLog on read.
		return nopApplier{}, m.w.DurableLSN()
	}
	c.startAll("a1", "a2")
	leader := c.waitLeader(5 * time.Second)

	alog, err := audit.OpenLog(leader.w)
	if err != nil {
		t.Fatalf("leader audit log: %v", err)
	}
	for i := 0; i < 20; i++ {
		if _, err := alog.AppendChecked("alice", "read", "doc"+itoa(i), "permit"); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := leader.node.WaitCommitted(ctx, leader.w.LastLSN()); err != nil {
		t.Fatalf("wait committed: %v", err)
	}

	var replica *member
	for _, id := range []string{"a1", "a2"} {
		if id != leader.id {
			replica = c.members[id]
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for replica.w.DurableLSN() < leader.w.LastLSN() {
		if time.Now().After(deadline) {
			t.Fatalf("replica durable %d, leader at %d", replica.w.DurableLSN(), leader.w.LastLSN())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Reopen the replica's WAL cold and re-walk the chain, exactly as a
	// node would after restarting from catch-up.
	c.stop(replica.id)
	w := reopenWAL(t, replica)
	flog, err := audit.OpenLog(w)
	if err != nil {
		t.Fatalf("replicated chain failed verification: %v", err)
	}
	if flog.Len() != alog.Len() {
		t.Fatalf("replica chain has %d records, leader %d", flog.Len(), alog.Len())
	}
	lr, fr := alog.Records(), flog.Records()
	if lr[len(lr)-1].Hash != fr[len(fr)-1].Hash {
		t.Fatal("replica chain head differs from leader")
	}

	// Forge an entry directly into the replica's log: well-formed JSON,
	// broken chain. The next OpenLog must refuse to serve.
	forged := `{"Seq":20,"Actor":"mallory","Action":"erase","Object":"doc0","Outcome":"permit","PrevHash":"bogus","Hash":"bogus"}`
	if _, err := w.Append([]byte(forged)); err != nil {
		t.Fatalf("forge append: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	w = reopenWAL(t, replica)
	defer w.Close()
	if _, err := audit.OpenLog(w); !errors.Is(err, audit.ErrChainBroken) {
		t.Fatalf("tampered replica chain verified: err=%v", err)
	}
}
