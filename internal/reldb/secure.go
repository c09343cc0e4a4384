package reldb

import (
	"fmt"

	"webdbsec/internal/credential"
	"webdbsec/internal/decisioncache"
	"webdbsec/internal/policy"
	"webdbsec/internal/sysr"
)

// This file makes the engine security-aware, per §3.1: "we need to examine
// the security impact on all of the web data management functions ...
// query processing algorithms may need to take into consideration the
// access control policies."
//
// Three mechanisms compose:
//
//   - table privileges via the System R grant catalog (internal/sysr) —
//     the baseline discretionary layer;
//   - row-level policies: per-table predicates attached to subject specs;
//     the query processor rewrites WHERE clauses so a subject can only
//     ever see (or modify) its visible rows;
//   - column policies: per-table column masks; a masked column reads NULL
//     in the subject's view — in a result, and before an aggregate groups
//     or folds it.

// RowPolicy grants visibility of the rows of Table matching Pred to the
// subjects matching Subject. Multiple applicable policies union (OR).
// A table with at least one row policy is closed: subjects matching none
// see nothing.
type RowPolicy struct {
	Name    string
	Table   string
	Subject policy.SubjectSpec
	Pred    Expr
}

// ColPolicy hides the listed columns of Table from the subjects matching
// Subject: they read NULL, in every result and under every aggregate.
type ColPolicy struct {
	Name    string
	Table   string
	Subject policy.SubjectSpec
	Columns []string
}

// SecureDB wraps a Database with the security layers. The grant catalog
// doubles as the security part of the metadata catalog the paper asks for
// ("Metadata includes not only information about the resources ... it also
// includes security policies", §3.1).
type SecureDB struct {
	db       *Database
	grants   *sysr.Catalog
	rowPols  []*RowPolicy
	colPols  []*ColPolicy
	verifier *credential.Verifier
	// parsed caches compiled SELECTs, aggregates included, by source text.
	// Only SELECTs are cached: ExecStmt copies the statement before the
	// security rewrite, so the cached form is never mutated, while
	// INSERT/UPDATE/DELETE texts carry inline values and would churn the
	// cache without repeats.
	parsed *decisioncache.Cache[string, *SelectStmt]
}

// selectCacheCapacity bounds the SELECT parse cache of a SecureDB.
const selectCacheCapacity = 256

// NewSecureDB wraps a database. verifier may be nil.
func NewSecureDB(db *Database, verifier *credential.Verifier) *SecureDB {
	return &SecureDB{
		db:       db,
		grants:   sysr.NewCatalog(),
		verifier: verifier,
		parsed:   decisioncache.New[string, *SelectStmt](selectCacheCapacity, decisioncache.HashString),
	}
}

// ParseCacheStats snapshots the SELECT parse-cache counters.
func (s *SecureDB) ParseCacheStats() decisioncache.Stats { return s.parsed.Stats() }

// Parse compiles a statement, serving repeated SELECT texts from the
// bounded parse cache. The statement is shared: hand it to ExecStmt, do not
// modify it.
//
// seclint:sanitizer
func (s *SecureDB) Parse(src string) (Stmt, error) {
	if sel, ok := s.parsed.Get(src); ok {
		return sel, nil
	}
	st, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if sel, ok := st.(*SelectStmt); ok {
		s.parsed.Put(src, sel)
	}
	return st, nil
}

// DB returns the underlying database (for administration paths that are
// already authorized).
func (s *SecureDB) DB() *Database { return s.db }

// Grants returns the System R grant catalog.
func (s *SecureDB) Grants() *sysr.Catalog { return s.grants }

// AddRowPolicy installs a row-level policy.
//
// seclint:exempt policy administration on the trusted control path, not a data entry point
func (s *SecureDB) AddRowPolicy(p *RowPolicy) error {
	if p.Table == "" || p.Pred == nil {
		return fmt.Errorf("reldb: row policy %q needs a table and predicate", p.Name)
	}
	s.rowPols = append(s.rowPols, p)
	return nil
}

// AddColPolicy installs a column-masking policy.
//
// seclint:exempt policy administration on the trusted control path, not a data entry point
func (s *SecureDB) AddColPolicy(p *ColPolicy) error {
	if p.Table == "" || len(p.Columns) == 0 {
		return fmt.Errorf("reldb: column policy %q needs a table and columns", p.Name)
	}
	s.colPols = append(s.colPols, p)
	return nil
}

// CreateTable creates a table owned by the subject, registering it in the
// grant catalog.
func (s *SecureDB) CreateTable(owner *policy.Subject, src string) error {
	st, err := Parse(src)
	if err != nil {
		return err
	}
	ct, ok := st.(*CreateTableStmt)
	if !ok {
		return fmt.Errorf("reldb: CreateTable wants a CREATE TABLE statement")
	}
	if _, err := s.db.ExecStmt(ct); err != nil {
		return err
	}
	return s.grants.CreateObject(ct.Table, owner.ID)
}

// rowPredicate computes the subject's visibility predicate for a table:
// nil when the table has no row policies (open to privilege holders), a
// FALSE-equivalent when policies exist but none applies, otherwise the OR
// of the applicable predicates.
func (s *SecureDB) rowPredicate(subject *policy.Subject, table string) (Expr, bool) {
	var pred Expr
	hasAny := false
	for _, p := range s.rowPols {
		if p.Table != table {
			continue
		}
		hasAny = true
		if !p.Subject.Matches(subject, s.verifier) {
			continue
		}
		if pred == nil {
			pred = p.Pred
		} else {
			pred = &OrExpr{L: pred, R: p.Pred}
		}
	}
	if !hasAny {
		return nil, false
	}
	return pred, true
}

// hiddenColumns returns the set of column names hidden from the subject;
// nil when there are none.
func (s *SecureDB) hiddenColumns(subject *policy.Subject, table string) map[string]bool {
	var out map[string]bool
	for _, p := range s.colPols {
		if p.Table != table || !p.Subject.Matches(subject, s.verifier) {
			continue
		}
		if out == nil {
			out = map[string]bool{}
		}
		for _, c := range p.Columns {
			out[c] = true
		}
	}
	return out
}

// Exec parses a statement and runs it as the subject through ExecStmt.
func (s *SecureDB) Exec(subject *policy.Subject, src string) (*Result, error) {
	st, err := s.Parse(src)
	if err != nil {
		return nil, err
	}
	return s.ExecStmt(subject, st)
}

// ExecStmt runs a parsed statement as the subject. It is the one gate every
// statement kind passes: the table privilege, then the subject's view — its
// row policies conjoined onto WHERE and, for a SELECT, its hidden columns —
// installed on a copy of the statement, then the engine. This is the
// paper's "query processing [taking] into consideration the access control
// policies": the rewrite happens before planning, so the policy's
// conjuncts narrow the scan on chunk keys as the query's own do, and an
// aggregate is computed over the view.
func (s *SecureDB) ExecStmt(subject *policy.Subject, st Stmt) (*Result, error) {
	var (
		priv  sysr.Privilege
		table string
		where *Expr       // the copy's WHERE; nil for a statement without one
		sel   *SelectStmt // the copy, when the statement is a SELECT
	)
	switch q := st.(type) {
	case *SelectStmt:
		q2 := *q
		priv, table, where, st, sel = sysr.Select, q.Table, &q2.Where, &q2, &q2
	case *InsertStmt:
		priv, table = sysr.Insert, q.Table
	case *UpdateStmt:
		q2 := *q
		priv, table, where, st = sysr.Update, q.Table, &q2.Where, &q2
	case *DeleteStmt:
		q2 := *q
		priv, table, where, st = sysr.Delete, q.Table, &q2.Where, &q2
	default:
		return nil, fmt.Errorf("reldb: statement kind not allowed through SecureDB.Exec")
	}
	if !s.grants.HasPrivilege(subject.ID, priv, table) {
		return nil, fmt.Errorf("reldb: %s lacks %s on %s", subject.ID, priv, table)
	}
	if sel != nil {
		sel.hidden = s.hiddenColumns(subject, table)
	}
	if where != nil {
		rewritten, empty := s.rewriteWhere(subject, table, *where)
		if empty {
			switch {
			case sel == nil:
				return &Result{}, nil // a write over no visible row
			case len(sel.Aggs) == 0:
				return &Result{Columns: sel.Columns}, nil
			}
			// An aggregate over no visible row still answers — COUNT 0,
			// NULLs — never an error that tells the tables apart.
			rewritten = falseExpr{}
		}
		*where = rewritten
	}
	// seclint:taint-exempt the statement is structural: subject attributes land in predicate constants compared by the evaluator, never re-parsed as SQL text
	return s.db.ExecStmt(st)
}

// rewriteWhere conjoins the subject's row-visibility predicate onto the
// query's WHERE clause. empty reports that the subject can match no rows
// at all (policies exist, none applies).
func (s *SecureDB) rewriteWhere(subject *policy.Subject, table string, where Expr) (Expr, bool) {
	pred, constrained := s.rowPredicate(subject, table)
	if !constrained {
		return where, false
	}
	if pred == nil {
		return nil, true
	}
	if where == nil {
		return pred, false
	}
	return &AndExpr{L: where, R: pred}, false
}
