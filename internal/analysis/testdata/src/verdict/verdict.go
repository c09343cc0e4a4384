// Testdata for the verdictcheck analyzer. The cases call the real
// webdbsec APIs — the analyzer matches callees by their full type-checked
// names, so stand-ins would not exercise it.
package verdict

import (
	"context"

	"webdbsec/internal/audit"
	"webdbsec/internal/policy"
	"webdbsec/internal/reldb"
	"webdbsec/internal/replication"
	"webdbsec/internal/wal"
	"webdbsec/internal/xmldoc"
)

func bareCall(w *wal.WAL, p []byte) {
	w.Append(p) // want `durability verdict of \(\*wal\.WAL\)\.Append is discarded \(bare call statement\)`
}

func blankAssign(t *reldb.Txn) {
	_ = t.Commit() // want `durability verdict of \(\*reldb\.Txn\)\.Commit is assigned to _`
}

// spreadBlank drops the verdict while keeping the LSN: a single call on
// the right-hand side spreads its results, and the error lands on the
// trailing blank.
func spreadBlank(w *wal.WAL, p []byte) {
	lsn, _ := w.Append(p) // want `durability verdict of \(\*wal\.WAL\)\.Append is assigned to _`
	_ = lsn
}

func deferred(w *wal.WAL) {
	defer w.Sync() // want `durability verdict of \(\*wal\.WAL\)\.Sync is unobservable \(deferred call\)`
}

func goroutine(a *wal.Ack) {
	go a.Wait() // want `durability verdict of \(\*wal\.Ack\)\.Wait is unobservable \(go statement\)`
}

func auditDrop(l *audit.Log) {
	l.AppendChecked("actor", "action", "object", "ok") // want `durability verdict of \(\*audit\.Log\)\.AppendChecked is discarded \(bare call statement\)`
}

// checked returns the verdict to its caller: not a drop.
func checked(t *reldb.Txn) error {
	return t.Commit()
}

// checkedAssign binds the verdict to a named variable: not a drop, even
// though the LSN is unused.
func checkedAssign(w *wal.WAL, p []byte) error {
	_, err := w.Append(p)
	return err
}

// waived drops the verdict deliberately and says why on the call line.
func waived(w *wal.WAL, p []byte) {
	w.Append(p) // seclint:exempt crash-test harness drops the verdict on purpose
}

func checkpointDB(d *reldb.Database) error {
	return d.Checkpoint()
}

func checkpointAtDrop(w *wal.WAL, snap []byte) {
	w.CheckpointAt(snap, w.LastLSN()) // want `durability verdict of \(\*wal\.WAL\)\.CheckpointAt is discarded \(bare call statement\)`
}

func checkpointBaseBlank(b *policy.Base) {
	_ = b.Checkpoint() // want `durability verdict of \(\*policy\.Base\)\.Checkpoint is assigned to _`
}

func checkpointStoreDeferred(s *xmldoc.Store) {
	defer s.Checkpoint() // want `durability verdict of \(\*xmldoc\.Store\)\.Checkpoint is unobservable \(deferred call\)`
}

// --- replication verdicts (PR 6) ---

func ackWithoutQuorum(n *replication.Node, w *wal.WAL) {
	go n.WaitCommitted(context.Background(), w.LastLSN()) // want `durability verdict of \(\*replication\.Node\)\.WaitCommitted is unobservable \(go statement\)`
}

func applyDrop(f *reldb.Follower, p []byte) {
	f.Apply(1, p) // want `durability verdict of \(\*reldb\.Follower\)\.Apply is discarded \(bare call statement\)`
}

func restoreBlank(f *reldb.Follower, snap []byte) {
	_ = f.Restore(1, snap) // want `durability verdict of \(\*reldb\.Follower\)\.Restore is assigned to _`
}

func xmlApplyDrop(s *xmldoc.Store, p []byte) {
	s.ApplyReplicated(1, p) // want `durability verdict of \(\*xmldoc\.Store\)\.ApplyReplicated is discarded \(bare call statement\)`
}

func xmlRestoreDrop(s *xmldoc.Store, snap []byte) {
	s.RestoreReplicated(1, snap) // want `durability verdict of \(\*xmldoc\.Store\)\.RestoreReplicated is discarded \(bare call statement\)`
}

func truncateDrop(w *wal.WAL) {
	w.TruncateTo(7) // want `durability verdict of \(\*wal\.WAL\)\.TruncateTo is discarded \(bare call statement\)`
}

func installDeferred(w *wal.WAL, snap []byte) {
	defer w.InstallSnapshot(snap, 7) // want `durability verdict of \(\*wal\.WAL\)\.InstallSnapshot is unobservable \(deferred call\)`
}

// ackChecked returns the cluster verdict to the client path: not a drop.
func ackChecked(n *replication.Node, w *wal.WAL) error {
	return n.WaitCommitted(context.Background(), w.LastLSN())
}
