// Package core assembles the paper's contribution out of the substrates:
// a secure web database front end (access control + privacy constraints +
// inference control + audit, §3), and the layered secure-semantic-web
// stack with the flexible security policy of §5 (stack.go).
package core

import (
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
//     (reldb.SecureDB) — discretionary access control;
//  2. (reads) privacy-constraint filtering of the result columns, by source
//     attribute (privacy.Controller) — the privacy controller;
//  3. (reads) the inference controller (inference.Controller) — the
//     released attribute set, combined with the requestor's history, must
//     not let it derive anything the constraints protect;
//  4. the audit log records the decision either way.
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

// QueryOutcome is the result of a gated query.
type QueryOutcome struct {
	Result *reldb.Result
	// MaskedColumns lists columns blanked by privacy constraints.
	MaskedColumns []string
	// Derived lists attributes the inference controller determined the
	// subject can now deduce.
	Derived []string
}

// access is the first stage of both entries: the statement is parsed once,
// must be of the kind the entry serves, and that parse then passes
// SecureDB's gate.
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
	res, err := w.sec.ExecStmt(s, st)
	return st, res, err
}

// Query runs a SELECT, aggregate or not, through the whole pipeline.
func (w *SecureWebDB) Query(s *policy.Subject, sql string) (*QueryOutcome, error) {
	st, res, err := w.access(s, sql, true)
	if err != nil {
		w.log.Append(s.ID, "query", sql, "deny:access")
		return nil, err
	}
	masked := w.priv.FilterResult(s, res)
	// A masked cell is NULLed after the fold, which is too late for the
	// GROUP BY column: its rows would stand one per hidden value.
	if by := st.(*reldb.SelectStmt).GroupBy; by != "" && slices.Contains(masked, by) {
		w.log.Append(s.ID, "query", sql, "deny:privacy:"+by)
		return nil, fmt.Errorf("core: query refused: grouping by %s, which privacy constraints withhold from %s, would release one row per hidden value", by, s.ID)
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
		w.log.Append(s.ID, "query", sql, "deny:inference:"+dec.Violation)
		return nil, fmt.Errorf("core: query refused: releasing %v would let %s infer protected information (constraint %s)",
			released, s.ID, dec.Violation)
	}
	w.log.Append(s.ID, "query", sql, "permit")
	return &QueryOutcome{Result: res, MaskedColumns: masked, Derived: dec.Derived}, nil
}

// Execute runs INSERT, UPDATE or DELETE through the access control layer
// with auditing.
func (w *SecureWebDB) Execute(s *policy.Subject, sql string) (*reldb.Result, error) {
	_, res, err := w.access(s, sql, false)
	if err != nil {
		w.log.Append(s.ID, "execute", sql, "deny")
		return nil, err
	}
	w.log.Append(s.ID, "execute", sql, "permit")
	return res, nil
}
