// Package core assembles the paper's contribution out of the substrates:
// a secure web database front end (access control + privacy constraints +
// inference control + audit, §3), and the layered secure-semantic-web
// stack with the flexible security policy of §5 (stack.go).
package core

import (
	"errors"
	"fmt"
	"slices"

	"webdbsec/internal/audit"
	"webdbsec/internal/inference"
	"webdbsec/internal/policy"
	"webdbsec/internal/privacy"
	"webdbsec/internal/reldb"
)

// SecureWebDB is the full §3.1+§3.3 pipeline in front of the relational
// substrate. A statement is parsed once, must be of the kind its entry
// serves — Query reads, Execute writes; the other kind is refused, and
// audited, before it touches a table — and then passes, in order:
//
//  1. System R privilege check and row/column policy rewrite
//     (reldb.SecureDB) — discretionary access control; a read is bound
//     there, its rows not read;
//  2. (reads) privacy-constraint filtering of the result columns, by source
//     attribute (privacy.Controller) — the privacy controller;
//  3. (reads) the inference controller (inference.Controller) — the
//     released attribute set, combined with the requestor's history, must
//     not let it derive anything the constraints protect;
//  4. the audit log records the decision either way. A decision whose
//     record the log cannot take is not released: the entry fails with
//     ErrAuditUnavailable instead.
//
// A read's rows are read last, when the caller reads the outcome: none for
// a refused query.
//
// An aggregate is a read: F(col) releases col, COUNT(*) no attribute.
type SecureWebDB struct {
	sec   *reldb.SecureDB
	priv  *privacy.Controller
	infer *inference.Controller
	log   *audit.Log
}

// Config carries the components; zero fields get fresh defaults.
type Config struct {
	DB      *reldb.SecureDB
	Privacy *privacy.Controller
	Infer   *inference.Controller
	Audit   *audit.Log
}

// NewSecureWebDB assembles the pipeline.
func NewSecureWebDB(cfg Config) *SecureWebDB {
	if cfg.DB == nil {
		cfg.DB = reldb.NewSecureDB(reldb.NewDatabase(), nil)
	}
	if cfg.Privacy == nil {
		cfg.Privacy = privacy.NewController()
	}
	if cfg.Infer == nil {
		cfg.Infer = inference.NewController(cfg.Privacy)
	}
	if cfg.Audit == nil {
		cfg.Audit = audit.NewLog()
	}
	return &SecureWebDB{sec: cfg.DB, priv: cfg.Privacy, infer: cfg.Infer, log: cfg.Audit}
}

// DB exposes the secure relational layer for administration (grants,
// policies, table creation).
func (w *SecureWebDB) DB() *reldb.SecureDB { return w.sec }

// Privacy exposes the privacy controller for constraint administration.
func (w *SecureWebDB) Privacy() *privacy.Controller { return w.priv }

// Inference exposes the inference controller for rule administration.
func (w *SecureWebDB) Inference() *inference.Controller { return w.infer }

// Audit exposes the audit log.
func (w *SecureWebDB) Audit() *audit.Log { return w.log }

// ErrAuditUnavailable is wrapped by Query and Execute when the audit log
// did not take the decision's record: the pipeline fails closed, so no
// answer leaves without its record. Execute's transaction has committed by
// then.
var ErrAuditUnavailable = errors.New("core: audit trail unavailable")

// record appends the decision's audit record and returns result, the
// decision's own error, or the audit failure that withholds it.
func (w *SecureWebDB) record(s *policy.Subject, action, sql, outcome string, result error) error {
	if _, err := w.log.AppendChecked(s.ID, action, sql, outcome); err != nil {
		return fmt.Errorf("%w: %v", ErrAuditUnavailable, err)
	}
	return result
}

// Unauthenticated records that a request claiming to be s was refused at
// the front door, before sql reached the pipeline: its outcome is
// deny:auth, its action the one the request's route runs (query for a
// read). It returns cause, or the audit failure that withholds it.
func (w *SecureWebDB) Unauthenticated(s *policy.Subject, sql string, read bool, cause error) error {
	action := "execute"
	if read {
		action = "query"
	}
	return w.record(s, action, sql, "deny:auth", cause)
}

// QueryOutcome is the result of a gated query.
type QueryOutcome struct {
	// Result is bound, not read: its rows are read by Result.Each, from
	// the version the query was bound to, with masked columns NULL.
	Result *reldb.Result
	// MaskedColumns lists columns blanked by privacy constraints.
	MaskedColumns []string
	// Derived lists attributes the inference controller determined the
	// subject can now deduce.
	Derived []string
}

// access is the first stage of both entries: the statement is parsed once,
// must be of the kind the entry serves, and that parse then passes
// SecureDB's gate. A write executes there; a read is bound, its rows not
// yet read.
func (w *SecureWebDB) access(s *policy.Subject, sql string, read bool) (reldb.Stmt, *reldb.Result, error) {
	st, err := w.sec.Parse(sql)
	if err != nil {
		return nil, nil, err
	}
	if _, isRead := st.(*reldb.SelectStmt); isRead != read {
		if read {
			return nil, nil, fmt.Errorf("core: query refused: not a SELECT; INSERT, UPDATE and DELETE go through execute")
		}
		return nil, nil, fmt.Errorf("core: execute refused: a SELECT is a query, not a write")
	}
	res, err := w.sec.ExecBound(s, st)
	return st, res, err
}

// Query runs a SELECT, aggregate or not, through the whole pipeline. Every
// decision — access, privacy masking, inference, the audit record — is
// taken from the bound statement and the policy, before a row is read: a
// refused query reads none, and a permitted one's rows are read when the
// caller reads the outcome's Result.
func (w *SecureWebDB) Query(s *policy.Subject, sql string) (*QueryOutcome, error) {
	st, res, err := w.access(s, sql, true)
	if err != nil {
		return nil, w.record(s, "query", sql, "deny:access", err)
	}
	masked := w.priv.FilterResult(s, res)
	// A masked cell is NULLed after the fold, which is too late for the
	// GROUP BY column: its rows would stand one per hidden value.
	if by := st.(*reldb.SelectStmt).GroupBy; by != "" && slices.Contains(masked, by) {
		return nil, w.record(s, "query", sql, "deny:privacy:"+by, fmt.Errorf("core: query refused: grouping by %s, which privacy constraints withhold from %s, would release one row per hidden value", by, s.ID))
	}
	// Only attributes that actually flow to the subject count for inference.
	var released []string
	for i, attr := range res.Attributes() {
		if attr != "" && !slices.Contains(masked, res.Columns[i]) {
			released = append(released, attr)
		}
	}
	dec := w.infer.Check(s, released)
	if !dec.Allowed {
		return nil, w.record(s, "query", sql, "deny:inference:"+dec.Violation, fmt.Errorf(
			"core: query refused: releasing %v would let %s infer protected information (constraint %s)",
			released, s.ID, dec.Violation))
	}
	if err := w.record(s, "query", sql, "permit", nil); err != nil {
		return nil, err
	}
	return &QueryOutcome{Result: res, MaskedColumns: masked, Derived: dec.Derived}, nil
}

// Execute runs INSERT, UPDATE or DELETE through the access control layer
// with auditing.
func (w *SecureWebDB) Execute(s *policy.Subject, sql string) (*reldb.Result, error) {
	_, res, err := w.access(s, sql, false)
	if err != nil {
		return nil, w.record(s, "execute", sql, "deny", err)
	}
	if err := w.record(s, "execute", sql, "permit", nil); err != nil {
		return nil, err
	}
	return res, nil
}
